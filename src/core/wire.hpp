// Binary wire helpers shared by the checkpoint family (serial engine
// checkpoints, per-rank block checkpoints of the fault-tolerance layer).
//
// Reader validates every access against the blob's bounds and throws
// CheckpointError — a std::runtime_error — with a message naming what was
// being read. Truncated, corrupt or version-mismatched blobs therefore
// fail loudly and never touch memory out of bounds (asserted by negative
// tests under ASan/UBSan).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace egt::core {

/// Any failure to decode a checkpoint-family blob: truncation, bad magic,
/// unsupported version, fingerprint mismatch, trailing bytes.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace wire {

class Writer {
 public:
  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void bytes(const std::vector<std::byte>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    append(b);
  }
  /// `b` verbatim, with no length prefix.
  void append(const std::vector<std::byte>& b) {
    if (!b.empty()) raw(b.data(), b.size());
  }
  void doubles(const double* p, std::size_t n) {
    // n == 0 must not touch p: an empty vector's data() may be null, and
    // memcpy's pointer arguments are declared non-null even for size 0.
    if (n != 0) raw(p, n * sizeof(double));
  }
  std::vector<std::byte> take() { return std::move(out_); }

 private:
  // Out of line (wire.cpp): inlined into a run of fixed-size writes, the
  // vector growth trips GCC 12's bounds analysis (-Warray-bounds,
  // -Wstringop-overflow false positives in Release builds).
  void raw(const void* p, std::size_t n);
  std::vector<std::byte> out_;
};

class Reader {
 public:
  /// `what` names the blob kind in error messages ("checkpoint",
  /// "block checkpoint", ...). The referenced buffer must outlive the
  /// reader.
  explicit Reader(const std::vector<std::byte>& in,
                  std::string what = "checkpoint")
      : in_(in), what_(std::move(what)) {}

  std::uint8_t u8(const char* field) {
    std::uint8_t v;
    raw(&v, sizeof v, field);
    return v;
  }
  std::uint32_t u32(const char* field) {
    std::uint32_t v;
    raw(&v, sizeof v, field);
    return v;
  }
  std::uint64_t u64(const char* field) {
    std::uint64_t v;
    raw(&v, sizeof v, field);
    return v;
  }
  double f64(const char* field) {
    double v;
    raw(&v, sizeof v, field);
    return v;
  }
  std::vector<std::byte> bytes(const char* field) {
    const std::uint32_t n = u32(field);
    // Bounds are checked before any allocation, so a corrupt length field
    // cannot trigger a multi-gigabyte resize.
    require(n <= in_.size() - off_, field);
    std::vector<std::byte> b(in_.begin() + static_cast<std::ptrdiff_t>(off_),
                             in_.begin() + static_cast<std::ptrdiff_t>(off_ + n));
    off_ += n;
    return b;
  }
  std::vector<double> doubles(std::size_t n, const char* field) {
    require(n <= (in_.size() - off_) / sizeof(double), field);
    std::vector<double> v(n);
    if (n != 0) std::memcpy(v.data(), in_.data() + off_, n * sizeof(double));
    off_ += n * sizeof(double);
    return v;
  }

  /// The magic and version a checkpoint-family blob starts with: fails
  /// unless the magic matches and the version is in [oldest, newest].
  std::uint32_t header(std::uint64_t magic, const std::string& kind,
                       std::uint32_t oldest, std::uint32_t newest) {
    if (u64("magic") != magic) fail("not a " + kind + " (bad magic)");
    const std::uint32_t v = u32("version");
    if (v < oldest || v > newest) {
      fail("unsupported " + kind + " version " + std::to_string(v) +
           " (this build reads " +
           (oldest == newest ? "version "
                             : "versions " + std::to_string(oldest) + " to ") +
           std::to_string(newest) + ")");
    }
    return v;
  }

  /// Every byte must be consumed; anything left over means the blob does
  /// not match the expected layout.
  void expect_exhausted() const {
    if (off_ != in_.size()) {
      throw CheckpointError("corrupt " + what_ + ": " +
                            std::to_string(in_.size() - off_) +
                            " trailing byte(s)");
    }
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw CheckpointError("corrupt " + what_ + ": " + why);
  }

 private:
  void require(bool ok, const char* field) const {
    if (!ok) {
      throw CheckpointError("truncated " + what_ + " while reading " + field);
    }
  }
  void raw(void* p, std::size_t n, const char* field) {
    require(n <= in_.size() - off_, field);
    std::memcpy(p, in_.data() + off_, n);
    off_ += n;
  }
  const std::vector<std::byte>& in_;
  std::string what_;
  std::size_t off_ = 0;
};

}  // namespace wire
}  // namespace egt::core
