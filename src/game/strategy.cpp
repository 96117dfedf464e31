#include "game/strategy.hpp"

#include <cmath>
#include <cstring>
#include <sstream>

namespace egt::game {

namespace {
int memory_from_states(std::size_t states) {
  for (int n = 0; n <= kMaxMemory; ++n) {
    if (num_states(n) == states) return n;
  }
  EGT_REQUIRE_MSG(false, "state count is not 4^n for n in [0,6]");
  return -1;  // unreachable
}
}  // namespace

PureStrategy PureStrategy::from_bits(const std::string& bits) {
  const int memory = memory_from_states(bits.size());
  PureStrategy s(memory);
  s.moves_ = util::BitVec::from_string(bits);
  return s;
}

MixedStrategy::MixedStrategy(int memory, double p)
    : memory_(memory), coop_(num_states(memory), p) {
  EGT_REQUIRE(memory >= 0 && memory <= kMaxMemory);
  EGT_REQUIRE_MSG(p >= 0.0 && p <= 1.0, "probability out of [0,1]");
}

MixedStrategy MixedStrategy::from_probs(std::vector<double> coop) {
  const int memory = memory_from_states(coop.size());
  MixedStrategy s(memory, 0.0);
  for (double p : coop) {
    EGT_REQUIRE_MSG(p >= 0.0 && p <= 1.0, "probability out of [0,1]");
  }
  s.coop_ = std::move(coop);
  return s;
}

MixedStrategy MixedStrategy::mem1(const std::array<double, 4>& coop) {
  return from_probs({coop[0], coop[1], coop[2], coop[3]});
}

MixedStrategy MixedStrategy::from_pure(const PureStrategy& p) {
  MixedStrategy m(p.memory(), 0.0);
  for (State s = 0; s < p.states(); ++s) {
    m.coop_[s] = p.move(s) == Move::Cooperate ? 1.0 : 0.0;
  }
  return m;
}

void MixedStrategy::set_coop_prob(State s, double p) {
  EGT_REQUIRE_MSG(p >= 0.0 && p <= 1.0, "probability out of [0,1]");
  coop_[s] = p;
}

bool MixedStrategy::is_degenerate() const noexcept {
  for (double p : coop_) {
    if (p != 0.0 && p != 1.0) return false;
  }
  return true;
}

double MixedStrategy::distance(const MixedStrategy& other) const {
  EGT_REQUIRE(memory_ == other.memory_);
  double d2 = 0.0;
  for (std::size_t i = 0; i < coop_.size(); ++i) {
    const double d = coop_[i] - other.coop_[i];
    d2 += d * d;
  }
  return std::sqrt(d2);
}

std::uint64_t MixedStrategy::hash() const noexcept {
  std::uint64_t h = util::mix64(static_cast<std::uint64_t>(memory_) + 1);
  for (double p : coop_) {
    std::uint64_t bits;
    std::memcpy(&bits, &p, sizeof bits);
    h = util::mix64(h ^ bits);
  }
  return h;
}

std::string MixedStrategy::to_string() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < coop_.size(); ++i) {
    if (i != 0) os << ", ";
    os << coop_[i];
  }
  os << "]";
  return os.str();
}

NWayStrategy::NWayStrategy(std::uint32_t actions)
    : probs_(actions, actions > 0 ? 1.0 / actions : 0.0) {
  EGT_REQUIRE_MSG(actions >= 2 && actions <= 255,
                  "n-way strategies span 2..255 actions");
}

NWayStrategy NWayStrategy::from_probs(std::vector<double> probs) {
  EGT_REQUIRE_MSG(probs.size() >= 2 && probs.size() <= 255,
                  "n-way strategies span 2..255 actions");
  double sum = 0.0;
  for (double p : probs) {
    EGT_REQUIRE_MSG(p >= 0.0 && p <= 1.0, "probability out of [0,1]");
    sum += p;
  }
  EGT_REQUIRE_MSG(std::abs(sum - 1.0) <= 1e-9,
                  "action distribution must sum to 1");
  NWayStrategy s(static_cast<std::uint32_t>(probs.size()));
  s.probs_ = std::move(probs);
  return s;
}

NWayStrategy NWayStrategy::pure_action(std::uint32_t actions,
                                       std::uint32_t action) {
  EGT_REQUIRE(action < actions);
  NWayStrategy s(actions);
  s.probs_.assign(actions, 0.0);
  s.probs_[action] = 1.0;
  return s;
}

bool NWayStrategy::is_degenerate() const noexcept {
  for (double p : probs_) {
    if (p != 0.0 && p != 1.0) return false;
  }
  return true;
}

std::uint64_t NWayStrategy::hash() const noexcept {
  std::uint64_t h = util::mix64(static_cast<std::uint64_t>(actions()) + 1);
  for (double p : probs_) {
    std::uint64_t bits;
    std::memcpy(&bits, &p, sizeof bits);
    h = util::mix64(h ^ bits);
  }
  return h;
}

std::string NWayStrategy::to_string() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    if (i != 0) os << ", ";
    os << probs_[i];
  }
  os << "}";
  return os.str();
}

int Strategy::memory() const noexcept {
  return std::visit([](const auto& s) { return s.memory(); }, impl_);
}

std::uint32_t Strategy::states() const noexcept {
  return std::visit([](const auto& s) { return s.states(); }, impl_);
}

double Strategy::coop_prob(State s) const noexcept {
  if (const auto* p = std::get_if<PureStrategy>(&impl_)) {
    return p->move(s) == Move::Cooperate ? 1.0 : 0.0;
  }
  if (const auto* n = std::get_if<NWayStrategy>(&impl_)) {
    return n->action_prob(0);  // action 0 is the "cooperate" analogue
  }
  return std::get<MixedStrategy>(impl_).coop_prob(s);
}

MixedStrategy Strategy::to_mixed() const {
  if (const auto* p = std::get_if<PureStrategy>(&impl_)) {
    return MixedStrategy::from_pure(*p);
  }
  if (const auto* n = std::get_if<NWayStrategy>(&impl_)) {
    EGT_REQUIRE_MSG(n->actions() == 2,
                    "only 2-action n-way strategies have a mixed view");
    return MixedStrategy::from_probs({n->action_prob(0)});
  }
  return std::get<MixedStrategy>(impl_);
}

std::uint64_t Strategy::hash() const noexcept {
  std::uint64_t tag = 0;
  if (is_pure()) {
    tag = 0x9e3779b97f4a7c15ULL;
  } else if (is_nway()) {
    tag = 0x2545F4914F6CDD1DULL;
  }
  return util::mix64(
      tag ^ std::visit([](const auto& s) { return s.hash(); }, impl_));
}

std::vector<std::byte> Strategy::serialize() const {
  std::vector<std::byte> out;
  if (is_nway()) {
    const auto& n = as_nway();
    out.push_back(static_cast<std::byte>(2));
    out.push_back(static_cast<std::byte>(0));  // memory, always 0
    out.push_back(static_cast<std::byte>(n.actions()));
    const auto& probs = n.probs();
    const auto* p = reinterpret_cast<const std::byte*>(probs.data());
    out.insert(out.end(), p, p + probs.size() * sizeof(double));
    return out;
  }
  out.push_back(static_cast<std::byte>(is_pure() ? 0 : 1));
  out.push_back(static_cast<std::byte>(memory()));
  if (is_pure()) {
    const auto words = as_pure().table().words();
    const auto* p = reinterpret_cast<const std::byte*>(words.data());
    out.insert(out.end(), p, p + words.size() * sizeof(std::uint64_t));
  } else {
    const auto& probs = as_mixed().probs();
    const auto* p = reinterpret_cast<const std::byte*>(probs.data());
    out.insert(out.end(), p, p + probs.size() * sizeof(double));
  }
  return out;
}

Strategy Strategy::deserialize(const std::vector<std::byte>& bytes) {
  EGT_REQUIRE_MSG(bytes.size() >= 2, "strategy payload too short");
  const int kind = std::to_integer<int>(bytes[0]);
  EGT_REQUIRE_MSG(kind >= 0 && kind <= 2, "unknown strategy kind byte");
  if (kind == 2) {
    EGT_REQUIRE_MSG(std::to_integer<int>(bytes[1]) == 0,
                    "n-way strategies are memory-0");
    EGT_REQUIRE_MSG(bytes.size() >= 3, "n-way strategy payload too short");
    const auto actions =
        static_cast<std::uint32_t>(std::to_integer<int>(bytes[2]));
    EGT_REQUIRE_MSG(bytes.size() == 3 + actions * sizeof(double),
                    "n-way strategy payload size mismatch");
    std::vector<double> probs(actions);
    std::memcpy(probs.data(), bytes.data() + 3, actions * sizeof(double));
    return NWayStrategy::from_probs(std::move(probs));
  }
  const bool pure = kind == 0;
  const int memory = std::to_integer<int>(bytes[1]);
  EGT_REQUIRE(memory >= 0 && memory <= kMaxMemory);
  const std::uint32_t states = num_states(memory);
  if (pure) {
    const std::size_t nwords = (states + 63) / 64;
    EGT_REQUIRE_MSG(bytes.size() == 2 + nwords * sizeof(std::uint64_t),
                    "pure strategy payload size mismatch");
    PureStrategy s(memory);
    for (State i = 0; i < states; ++i) {
      std::uint64_t w;
      std::memcpy(&w, bytes.data() + 2 + (i / 64) * sizeof w, sizeof w);
      s.set_move(i, from_bit((w >> (i % 64)) & 1u));
    }
    return s;
  }
  EGT_REQUIRE_MSG(bytes.size() == 2 + states * sizeof(double),
                  "mixed strategy payload size mismatch");
  std::vector<double> probs(states);
  std::memcpy(probs.data(), bytes.data() + 2, states * sizeof(double));
  return MixedStrategy::from_probs(std::move(probs));
}

}  // namespace egt::game
