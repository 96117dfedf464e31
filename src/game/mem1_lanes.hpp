// The payoff-only memory-one lane kernel (DESIGN.md §12): the row side's
// expected payoff of a Mem1Batch, the one value the fitness tier consumes.
//
// A lane runs exactly the operation sequence that produces the AVX2 totals
// kernel's payoff_a (transition products, the mul-then-three-FMA step per
// next outcome, four FMAs into the accumulator), so every width is bitwise
// equal to it: AVX-512 is a width, not a new numeric kernel. What differs
// is how many pairs are in flight. One group of lanes is bound by its
// 16-cycle dependency chains per round (the next-state mul -> fma -> fma
// -> fma, then four dependent FMAs into the accumulator); two independent
// groups interleaved fill those stalls: 16 pairs on AVX-512 (two 8-lane
// groups), 8 on AVX2 (two 4-lane groups). Remainders take the narrowest
// group that covers them, down to one 4-lane group, so a batch of one
// costs what the totals kernel's single group does.
//
// This header is deliberately free of library includes: the AVX-512
// translation unit includes only it, so no inline function of the rest of
// the library is ever compiled (and possibly kept by the linker) with
// AVX-512 instructions. The kernel template below is visible only to
// translation units built with AVX2+FMA, in an anonymous namespace so each
// one keeps its own instantiations.
#pragma once

#include <cstddef>
#include <cstdint>

namespace egt::game::batch {

/// A Mem1Batch as the lane kernels read it.
struct Mem1Lanes {
  const double* pa[4];  ///< pa[o][k]: P(pair k's A cooperates | outcome o)
  const double* pb[4];  ///< likewise for B, already in A's outcome encoding
  double va[4];         ///< the row's payoff of outcomes CC, CD, DC, DD
  std::uint32_t rounds;
};

/// out[k] = pair k's row payoff over in.rounds rounds, for k in [0, n):
/// two 4-lane AVX2 groups in flight (batch_avx2.cpp).
void payoff_mem1_avx2(const Mem1Lanes& in, std::size_t n, double* out);
/// The same with two 8-lane AVX-512 groups in flight (batch_avx512.cpp).
void payoff_mem1_avx512(const Mem1Lanes& in, std::size_t n, double* out);

}  // namespace egt::game::batch

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

namespace egt::game::batch {
namespace {

/// One 4-lane AVX2 register.
struct Ymm {
  using V = __m256d;
  static constexpr std::size_t kWidth = 4;
  static V set1(double x) { return _mm256_set1_pd(x); }
  static V zero() { return _mm256_setzero_pd(); }
  static V loadu(const double* p) { return _mm256_loadu_pd(p); }
  static void storeu(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V fmadd(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
};

#if defined(__AVX512F__)
/// One 8-lane AVX-512 register.
struct Zmm {
  using V = __m512d;
  static constexpr std::size_t kWidth = 8;
  static V set1(double x) { return _mm512_set1_pd(x); }
  static V zero() { return _mm512_setzero_pd(); }
  static V loadu(const double* p) { return _mm512_loadu_pd(p); }
  static void storeu(double* p, V v) { _mm512_storeu_pd(p, v); }
  static V sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V fmadd(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
};
#endif

/// Lanes [0, live) of p; the rest are padded with a benign probability.
/// Lane arithmetic is vertical, so padding cannot perturb live lanes.
template <class Ops>
inline typename Ops::V load_lanes(const double* p, std::size_t live) {
  if (live >= Ops::kWidth) return Ops::loadu(p);
  double buf[Ops::kWidth];
  for (std::size_t l = 0; l < Ops::kWidth; ++l) buf[l] = l < live ? p[l] : 0.5;
  return Ops::loadu(buf);
}

/// Pairs [k, k + live) in G interleaved groups of Ops::kWidth lanes
/// (live <= G * kWidth); out[l] receives pair k + l's row payoff.
template <class Ops, int G>
inline void payoff_groups(const Mem1Lanes& in, std::size_t k,
                          std::size_t live, double* out) {
  using V = typename Ops::V;
  constexpr std::size_t W = Ops::kWidth;
  const V one = Ops::set1(1.0);
  // Transition products t[g][next][cur]: the chain step is
  //   d'[next] = sum_cur d[cur] * t[next][cur].
  V t[G][4][4];
  V d[G][4];
  V acc[G];
  for (int g = 0; g < G; ++g) {
    const std::size_t base = k + g * W;
    const std::size_t glive = live > g * W ? live - g * W : 0;
    for (int o = 0; o < 4; ++o) {
      const V ca = load_lanes<Ops>(in.pa[o] + base, glive);
      const V cb = load_lanes<Ops>(in.pb[o] + base, glive);
      const V ia = Ops::sub(one, ca);
      const V ib = Ops::sub(one, cb);
      t[g][0][o] = Ops::mul(ca, cb);
      t[g][1][o] = Ops::mul(ca, ib);
      t[g][2][o] = Ops::mul(ia, cb);
      t[g][3][o] = Ops::mul(ia, ib);
    }
    // All-cooperate start: the whole mass sits on outcome CC.
    d[g][0] = one;
    d[g][1] = d[g][2] = d[g][3] = Ops::zero();
    acc[g] = Ops::zero();
  }
  const V va[4] = {Ops::set1(in.va[0]), Ops::set1(in.va[1]),
                   Ops::set1(in.va[2]), Ops::set1(in.va[3])};

  for (std::uint32_t r = 0; r < in.rounds; ++r) {
#pragma GCC unroll 2
    for (int g = 0; g < G; ++g) {
      V n[4];
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) {
        n[j] = Ops::fmadd(
            d[g][3], t[g][j][3],
            Ops::fmadd(d[g][2], t[g][j][2],
                       Ops::fmadd(d[g][1], t[g][j][1],
                                  Ops::mul(d[g][0], t[g][j][0]))));
      }
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) {
        acc[g] = Ops::fmadd(n[j], va[j], acc[g]);
        d[g][j] = n[j];
      }
    }
  }

  for (int g = 0; g < G; ++g) {
    const std::size_t glive = live > g * W ? live - g * W : 0;
    if (glive >= W) {
      Ops::storeu(out + g * W, acc[g]);
    } else if (glive > 0) {
      double buf[W];
      Ops::storeu(buf, acc[g]);
      for (std::size_t l = 0; l < glive; ++l) out[g * W + l] = buf[l];
    }
  }
}

/// Pairs [0, n) with two Wide groups in flight; a remainder takes the
/// narrowest group that covers it.
template <class Wide>
inline void payoff_batch(const Mem1Lanes& in, std::size_t n, double* out) {
  constexpr std::size_t W = Wide::kWidth;
  std::size_t k = 0;
  for (; k + 2 * W <= n; k += 2 * W) {
    payoff_groups<Wide, 2>(in, k, 2 * W, out + k);
  }
  const std::size_t rest = n - k;
  if (rest > W) {
    payoff_groups<Wide, 2>(in, k, rest, out + k);
  } else if (rest > Ymm::kWidth) {
    payoff_groups<Wide, 1>(in, k, rest, out + k);
  } else if (rest > 0) {
    payoff_groups<Ymm, 1>(in, k, rest, out + k);
  }
}

}  // namespace
}  // namespace egt::game::batch
#endif  // __AVX2__ && __FMA__
