// Deterministic random number generation.
//
// Three generators with different roles:
//  * SplitMix64  — seeding / hashing primitive.
//  * Xoshiro256  — fast sequential generator (Nature Agent, tooling).
//  * StreamRng   — counter-based generator: the value of draw k from stream
//                  (seed, key) is a pure function of (seed, key, k). This is
//                  what makes game play independent of which rank computes a
//                  game and of the rank count (see DESIGN.md §5).
//
// All generators satisfy std::uniform_random_bit_generator.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace egt::util {

/// Finalising 64-bit mix (Stafford variant 13); bijective.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

/// SplitMix64: tiny PRNG used to seed others and as a hash of integers.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;
  constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr result_type operator()() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(state_);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** by Blackman & Vigna: fast, high-quality sequential PRNG.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;
  using StateArray = std::array<std::uint64_t, 4>;

  explicit Xoshiro256(std::uint64_t seed) noexcept;

  result_type operator()() noexcept;

  /// Advance 2^128 steps; yields independent sequences for parallel use.
  void long_jump() noexcept;

  /// Full generator state — checkpoint/restart support.
  StateArray state() const noexcept {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void set_state(const StateArray& s) noexcept {
    for (int i = 0; i < 4; ++i) s_[i] = s[static_cast<std::size_t>(i)];
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

 private:
  std::uint64_t s_[4];
};

/// Counter-based stream generator. Draw k of stream (seed, key) is
/// mix64-based and reproducible regardless of call interleaving elsewhere.
class StreamRng {
 public:
  using result_type = std::uint64_t;

  /// Counter stride: draw k (1-based) of a stream with base b is
  /// at(b, k) = mix64(b + kGamma * k).
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

  constexpr StreamRng(std::uint64_t seed, std::uint64_t key) noexcept
      : base_(mix64(seed ^ mix64(key + 0x632be59bd9b4e019ULL))), ctr_(0) {}

  constexpr result_type operator()() noexcept { return at(base_, ++ctr_); }

  /// Value of draw `ctr` of the stream whose base is `base`.
  static constexpr std::uint64_t at(std::uint64_t base,
                                    std::uint64_t ctr) noexcept {
    return mix64(base + kGamma * ctr);
  }

  /// Base of the stream as seen from the current position: at(origin(), k)
  /// is the k-th value the generator will return from here on (k >= 1).
  /// Equals the stream base while nothing has been drawn. Batch kernels
  /// compute a stream's future values from it without advancing it.
  constexpr std::uint64_t origin() const noexcept {
    return base_ + kGamma * ctr_;
  }

  /// Number of values drawn so far.
  constexpr std::uint64_t counter() const noexcept { return ctr_; }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

 private:
  std::uint64_t base_;
  std::uint64_t ctr_;
};

/// Combine stream-key components into a single 64-bit key.
constexpr std::uint64_t stream_key(std::uint64_t a, std::uint64_t b,
                                   std::uint64_t c = 0) noexcept {
  return mix64(a + 0x9e3779b97f4a7c15ULL * (b + 1) +
               0xc2b2ae3d27d4eb4fULL * (c + 1));
}

/// Uniform double in [0, 1) from a 64-bit draw (53-bit mantissa).
constexpr double to_unit_double(std::uint64_t x) noexcept {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Uniform double in [0,1).
template <class Rng>
double uniform01(Rng& rng) {
  return to_unit_double(rng());
}

/// Uniform integer in [0, n) without modulo bias (Lemire rejection method).
template <class Rng>
std::uint64_t uniform_below(Rng& rng, std::uint64_t n) {
  if (n == 0) return 0;
  // 128-bit multiply-shift with rejection of the biased zone.
  __extension__ using u128 = unsigned __int128;
  for (;;) {
    const std::uint64_t x = rng();
    const auto m = static_cast<u128>(x) * n;
    const auto lo = static_cast<std::uint64_t>(m);
    if (lo >= n || lo >= (0ULL - n) % n) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

/// Integer in [lo, hi] as lo + draw % (hi - lo + 1). Slightly
/// modulo-biased (use uniform_below for statistics); kept because the
/// seeded chaos schedules are pinned to this exact draw sequence.
template <class Rng>
std::uint64_t pick(Rng& rng, std::uint64_t lo, std::uint64_t hi) {
  return lo + rng() % (hi - lo + 1);
}

/// Real in [lo, hi) from one draw (the chaos schedules' companion of pick).
template <class Rng>
double pick_real(Rng& rng, double lo, double hi) {
  return lo + to_unit_double(rng()) * (hi - lo);
}

/// Bernoulli trial with success probability p.
template <class Rng>
bool bernoulli(Rng& rng, double p) {
  return uniform01(rng) < p;
}

/// Standard normal via Box–Muller (consumes exactly two draws; no state).
template <class Rng>
double normal(Rng& rng) {
  // Avoid log(0) by nudging u1 away from zero.
  const double u1 = (static_cast<double>(rng() >> 11) + 1.0) * 0x1.0p-53;
  const double u2 = to_unit_double(rng());
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

}  // namespace egt::util
