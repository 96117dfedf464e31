#include "simcheck/trace.hpp"

#include <sstream>

#include "core/generation.hpp"

namespace egt::simcheck {

namespace {

constexpr std::uint32_t kTraceMagic = 0x45475454u;  // "TTGE": egt trace
constexpr std::uint32_t kTraceVersion = 1;

// Bit layout of the per-point event flags byte.
constexpr std::uint8_t kFlagPc = 1u << 0;
constexpr std::uint8_t kFlagAdopted = 1u << 1;
constexpr std::uint8_t kFlagMoran = 1u << 2;
constexpr std::uint8_t kFlagMutated = 1u << 3;

std::string describe_point(const core::TracePoint& p) {
  std::ostringstream os;
  os << "gen " << p.generation;
  if (p.pc) {
    os << " pc(" << p.teacher << "->" << p.learner
       << (p.adopted ? ", adopted" : ", rejected") << ")";
  }
  if (p.moran) {
    os << " moran(" << p.reproducer << "->" << p.dying << ")";
  }
  if (p.mutated) os << " mutation(" << p.mutation_target << ")";
  os << " table=" << p.table_hash;
  if (p.fitness_hash != 0) os << " fitness=" << p.fitness_hash;
  return os.str();
}

}  // namespace

void TraceRecorder::on_point(const core::TracePoint& point) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto g = static_cast<std::size_t>(point.generation);
  if (slots_.size() <= g) slots_.resize(g + 1);
  slots_[g] = Slot{true, point};
}

std::vector<core::TracePoint> TraceRecorder::contiguous_points() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<core::TracePoint> out;
  out.reserve(slots_.size());
  for (const auto& s : slots_) {
    if (!s.recorded) break;
    out.push_back(s.point);
  }
  return out;
}

std::optional<TraceDivergence> compare_traces(
    std::span<const core::TracePoint> a, std::span<const core::TracePoint> b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t g = 0; g < n; ++g) {
    const auto& pa = a[g];
    const auto& pb = b[g];
    std::string why;
    if (pa.generation != pb.generation) {
      why = "generation number mismatch";
    } else if (pa.nature != pb.nature) {
      why = "nature RNG state differs";
    } else if (pa.pc != pb.pc || pa.teacher != pb.teacher ||
               pa.learner != pb.learner) {
      why = "PC event differs";
    } else if (pa.moran != pb.moran || pa.reproducer != pb.reproducer ||
               pa.dying != pb.dying) {
      why = "Moran event differs";
    } else if (pa.adopted != pb.adopted) {
      why = "adoption decision differs";
    } else if (pa.mutated != pb.mutated ||
               pa.mutation_target != pb.mutation_target) {
      why = "mutation event differs";
    } else if (pa.table_hash != pb.table_hash) {
      why = "strategy table hash differs";
    } else if (pa.fitness_hash != 0 && pb.fitness_hash != 0 &&
               pa.fitness_hash != pb.fitness_hash) {
      why = "fitness hash differs";
    }
    if (!why.empty()) {
      return TraceDivergence{
          pa.generation, why + ": [" + describe_point(pa) + "] vs [" +
                             describe_point(pb) + "]"};
    }
  }
  if (a.size() != b.size()) {
    return TraceDivergence{
        n, "stream lengths differ (" + std::to_string(a.size()) + " vs " +
               std::to_string(b.size()) + " points)"};
  }
  return std::nullopt;
}

std::vector<std::byte> encode_trace(std::span<const core::TracePoint> points) {
  core::wire::Writer w;
  w.u32(kTraceMagic);
  w.u32(kTraceVersion);
  w.u64(points.size());
  for (const auto& p : points) {
    w.u64(p.generation);
    core::wire::put_nature(w, p.nature);
    std::uint8_t flags = 0;
    if (p.pc) flags |= kFlagPc;
    if (p.adopted) flags |= kFlagAdopted;
    if (p.moran) flags |= kFlagMoran;
    if (p.mutated) flags |= kFlagMutated;
    w.u8(flags);
    w.u32(p.teacher);
    w.u32(p.learner);
    w.u32(p.reproducer);
    w.u32(p.dying);
    w.u32(p.mutation_target);
    w.u64(p.table_hash);
    w.u64(p.fitness_hash);
  }
  return w.take();
}

std::vector<core::TracePoint> decode_trace(const std::vector<std::byte>& bytes) {
  core::wire::Reader r(bytes, "simcheck trace");
  if (r.u32("magic") != kTraceMagic) r.fail("bad magic");
  const auto version = r.u32("version");
  if (version != kTraceVersion) {
    r.fail("unsupported version " + std::to_string(version));
  }
  const std::uint64_t n = r.u64("point count");
  // One point occupies 85 bytes; reject counts the blob cannot hold.
  if (n > bytes.size() / 85) r.fail("point count exceeds blob size");
  std::vector<core::TracePoint> points(static_cast<std::size_t>(n));
  for (auto& p : points) {
    p.generation = r.u64("generation");
    p.nature = core::wire::get_nature(r);
    const std::uint8_t flags = r.u8("flags");
    p.pc = (flags & kFlagPc) != 0;
    p.adopted = (flags & kFlagAdopted) != 0;
    p.moran = (flags & kFlagMoran) != 0;
    p.mutated = (flags & kFlagMutated) != 0;
    p.teacher = r.u32("teacher");
    p.learner = r.u32("learner");
    p.reproducer = r.u32("reproducer");
    p.dying = r.u32("dying");
    p.mutation_target = r.u32("mutation target");
    p.table_hash = r.u64("table hash");
    p.fitness_hash = r.u64("fitness hash");
  }
  r.expect_exhausted();
  return points;
}

std::string to_hex(std::span<const std::byte> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::byte b : bytes) {
    const auto v = std::to_integer<unsigned>(b);
    out.push_back(digits[v >> 4]);
    out.push_back(digits[v & 0xf]);
  }
  return out;
}

std::vector<std::byte> from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    throw std::runtime_error("simcheck: odd-length hex string");
  }
  auto nibble = [](char c) -> unsigned {
    if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A' + 10);
    throw std::runtime_error("simcheck: invalid hex digit");
  };
  std::vector<std::byte> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>((nibble(hex[2 * i]) << 4) |
                                    nibble(hex[2 * i + 1]));
  }
  return out;
}

}  // namespace egt::simcheck
