// The fused sampled lane kernel (DESIGN.md §12.1): sampled games of one
// player kind played round by round with every draw made in-register.
//
// Per round and lane the kernel draws the round's values of the game's
// stream, mix64(origin + kGamma * k) for draw k; reads each side's move (a
// pure side's bit of its packed move table, a mixed side's test
// (x >> 11) * 2^-53 < coop[state], exact at every width); XORs the noise
// flips into the outcome; and adds the round's payoffs in round order. There is no FMA and no reassociation, so
// every lane equals the IpdEngine round loop bit for bit under any payoff
// matrix, at every width. Cooperation is counted as defections packed in
// one word (A's in the low 32 bits, B's above; rounds < 2^32, no carry).
//
// The noise test, the loop's (x >> 11) < noise_threshold, is made as
// x <= (noise_threshold << 11) - 1 without the shift of the draw: exact for
// every threshold in [1, 2^53], noise 1 included (there the bound wraps to
// 2^64 - 1).
//
// The payoff-only form (the fitness tier's, Totals = false) computes A's
// payoff alone: no B payoff and no defection count. B's history is always
// A's with each round's two bits swapped, so a pure B reads its move at A's
// state from its mirrored table (mirror[s] = table[swap_pairs(s)],
// batch::MirrorTables): B's state, its update and its own address
// arithmetic go, and both gathers share one word offset and one rotate
// count. A mixed B keeps its own state.
//
// One group of lanes is bound by the round's dependency chain (state ->
// table address -> gather -> move bit -> outcome -> state); two groups
// interleaved fill its stalls: 16 games in flight on AVX-512 (two 8-lane
// groups), 8 on AVX2 (two 4-lane groups). The scalar width is the same
// template at one lane with 8 games interleaved. A remainder takes the
// narrowest group that covers it; the last few games of a vector batch
// (a lone IpdEngine::play game among them) run at one lane, where the
// chain is shortest.
//
// Like game/mem1_lanes.hpp this header is free of library includes (the
// AVX-512 translation unit includes nothing but the lane headers), and the
// kernel templates sit in an anonymous namespace so each translation unit
// keeps its own instantiations at its own ISA.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace egt::game::batch {

/// One sampled game as the lane kernel reads it.
struct LaneGame {
  std::uint64_t a = 0;       ///< address of A's packed move words or coop[]
  std::uint64_t b = 0;       ///< likewise for B (payoff-only, pure: mirrored)
  std::uint64_t origin = 0;  ///< StreamRng::origin() of the game's stream
};

/// A batch of games of one player kind (which sides are mixed).
struct StreamLanes {
  const LaneGame* games = nullptr;
  bool mixed_a = false;
  bool mixed_b = false;
  /// unit_threshold(noise): 0 exactly when noise is 0; otherwise each
  /// round takes two noise draws.
  std::uint64_t noise_threshold = 0;
  double pay_a[4] = {};                ///< the row's payoff by outcome
  double pay_b[4] = {};                ///< the column's payoff by outcome
  std::uint32_t rounds = 0;
  std::uint64_t state_mask = 0;        ///< num_states(memory) - 1
};

/// A game's totals: defects holds A's defections in the low 32 bits and
/// B's above.
struct LaneTotals {
  double pay_a = 0.0;
  double pay_b = 0.0;
  std::uint64_t defects = 0;
};

/// out[k] = the totals of in.games[k], k in [0, n), with 8 games
/// interleaved at one lane (batch.cpp) ...
void play_stream_scalar(const StreamLanes& in, std::size_t n,
                        LaneTotals* out);
/// ... with two 4-lane AVX2 groups in flight (batch_avx2.cpp) ...
void play_stream_avx2(const StreamLanes& in, std::size_t n, LaneTotals* out);
/// ... or two 8-lane AVX-512 groups (batch_avx512.cpp).
void play_stream_avx512(const StreamLanes& in, std::size_t n,
                        LaneTotals* out);

/// Payoff-only twins: out[k] = the pay_a of in.games[k] above, bitwise,
/// where a pure B's address is its mirrored move table.
void play_stream_scalar(const StreamLanes& in, std::size_t n, double* out);
void play_stream_avx2(const StreamLanes& in, std::size_t n, double* out);
void play_stream_avx512(const StreamLanes& in, std::size_t n, double* out);

}  // namespace egt::game::batch

namespace egt::game::batch {
namespace {

// util::StreamRng's counter stride and util::mix64's multipliers (this
// header includes no library header; tests pin the draws to StreamRng).
constexpr std::uint64_t kStreamGamma = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kMix1 = 0xbf58476d1ce4e5b9ULL;
constexpr std::uint64_t kMix2 = 0x94d049bb133111ebULL;

/// One lane of 64-bit integers and doubles in scalar registers.
struct ScalarLane {
  using I = std::uint64_t;
  using D = double;
  using Table = const double*;
  using Index = std::uint64_t;
  static constexpr std::size_t kWidth = 1;
  static I set1(std::uint64_t x) { return x; }
  static I load(const std::uint64_t* p) { return *p; }
  static void store(std::uint64_t* p, I v) { *p = v; }
  static D zerod() { return 0.0; }
  static void stored(double* p, D v) { *p = v; }
  static I add(I a, I b) { return a + b; }
  static I bxor(I a, I b) { return a ^ b; }
  static I bor(I a, I b) { return a | b; }
  static I band(I a, I b) { return a & b; }
  template <int K>
  static I shl(I a) { return a << K; }
  template <int K>
  static I shr(I a) { return a >> K; }
  static I mul(I a, I b) { return a * b; }
  static D addd(D a, D b) { return a + b; }
  static Table table(const double* t) { return t; }
  static Index index(I o) { return o; }
  static D lookup(Table t, Index o) { return t[o]; }
  /// Bit s of the packed move words at address `words`.
  static I pure_defects(I words, I s) {
    const auto* w = reinterpret_cast<const std::uint64_t*>(
        static_cast<std::uintptr_t>(words));
    return (w[s >> 6] >> (s & 63)) & 1u;
  }
  /// 1 unless (x >> 11) * 2^-53 < coop[s] (the loop's uniform01 < p).
  static I mixed_defects(I coop, I s, I x) {
    const auto* p =
        reinterpret_cast<const double*>(static_cast<std::uintptr_t>(coop));
    return static_cast<double>(x >> 11) * 0x1.0p-53 < p[s] ? 0u : 1u;
  }
  /// f ^ 1 where x <= lim, lim = (thr << 11) - 1 mod 2^64 for the loop's
  /// bernoulli(noise) test (x >> 11) < thr.
  static I flip(I f, I x, I lim) { return f ^ (x <= lim ? 1u : 0u); }
};

}  // namespace
}  // namespace egt::game::batch

#if defined(__AVX2__)
#include <immintrin.h>

namespace egt::game::batch {
namespace {

/// One 4-lane AVX2 register.
struct YmmLanes {
  using I = __m256i;
  using D = __m256d;
  using Table = __m256i;  ///< four doubles as eight 32-bit words
  using Index = __m256i;  ///< 32-bit word pairs (2o, 2o + 1)
  static constexpr std::size_t kWidth = 4;
  static I set1(std::uint64_t x) {
    return _mm256_set1_epi64x(static_cast<long long>(x));
  }
  static I load(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint64_t* p, I v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static D zerod() { return _mm256_setzero_pd(); }
  static void stored(double* p, D v) { _mm256_storeu_pd(p, v); }
  static I add(I a, I b) { return _mm256_add_epi64(a, b); }
  static I bxor(I a, I b) { return _mm256_xor_si256(a, b); }
  static I bor(I a, I b) { return _mm256_or_si256(a, b); }
  static I band(I a, I b) { return _mm256_and_si256(a, b); }
  template <int K>
  static I shl(I a) { return _mm256_slli_epi64(a, K); }
  template <int K>
  static I shr(I a) { return _mm256_srli_epi64(a, K); }
  /// a * b mod 2^64 from three 32x32->64 multiplies (the a_hi * b_hi term
  /// vanishes mod 2^64).
  static I mul(I a, I b) {
    const I lo = _mm256_mul_epu32(a, b);
    const I cross = _mm256_add_epi64(_mm256_mul_epu32(shr<32>(a), b),
                                     _mm256_mul_epu32(a, shr<32>(b)));
    return _mm256_add_epi64(lo, shl<32>(cross));
  }
  static D addd(D a, D b) { return _mm256_add_pd(a, b); }
  static Table table(const double* t) {
    return _mm256_castpd_si256(_mm256_loadu_pd(t));
  }
  static Index index(I o) {
    const I two_o = shl<1>(o);
    return bor(bor(two_o, shl<32>(two_o)), set1(std::uint64_t{1} << 32));
  }
  static D lookup(Table t, Index ix) {
    return _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(t, ix));
  }
  static I pure_defects(I words, I s) {
    const I addr = add(words, shl<3>(shr<6>(s)));
    const I w = _mm256_i64gather_epi64(
        static_cast<const long long*>(nullptr), addr, 1);
    return band(_mm256_srlv_epi64(w, band(s, set1(63))), set1(1));
  }
  /// AVX2 has no u64 -> double convert: the 53-bit value splits into two
  /// 32-bit halves that each convert exactly (OR into the mantissa of
  /// 2^52, subtract 2^52), and hi * 2^-21 + lo * 2^-53 is exact.
  static I mixed_defects(I coop, I s, I x) {
    const I addr = add(coop, shl<3>(s));
    const D p =
        _mm256_i64gather_pd(static_cast<const double*>(nullptr), addr, 1);
    const I v = shr<11>(x);
    const I magic = set1(0x4330000000000000ULL);  // 2^52
    const D two52 = _mm256_set1_pd(0x1.0p52);
    const D lo = _mm256_sub_pd(
        _mm256_castsi256_pd(bor(band(v, set1(0xffffffffULL)), magic)), two52);
    const D hi =
        _mm256_sub_pd(_mm256_castsi256_pd(bor(shr<32>(v), magic)), two52);
    const D u = _mm256_add_pd(_mm256_mul_pd(hi, _mm256_set1_pd(0x1.0p-21)),
                              _mm256_mul_pd(lo, _mm256_set1_pd(0x1.0p-53)));
    const D coop_lane = _mm256_cmp_pd(u, p, _CMP_LT_OQ);
    return _mm256_andnot_si256(_mm256_castpd_si256(coop_lane), set1(1));
  }
  /// AVX2 compares only signed: x <= lim would cost a sign flip of x, as
  /// many µops as the shift, so this tests (x >> 11) < thr with the
  /// loop-invariant thr = (lim >> 11) + 1. Both sides are below 2^63, so
  /// the signed compare is exact.
  static I flip(I f, I x, I lim) {
    const I thr = add(shr<11>(lim), set1(1));
    return bxor(f, shr<63>(_mm256_cmpgt_epi64(thr, shr<11>(x))));
  }
};

}  // namespace
}  // namespace egt::game::batch
#endif  // __AVX2__

#if defined(__AVX512F__) && defined(__AVX512DQ__)
namespace egt::game::batch {
namespace {

/// One 8-lane AVX-512 register (F + DQ: native 64-bit multiply and
/// u64 -> double convert). Integer arithmetic goes through GCC vector
/// operators and the permute, rotate and gathers through their masked
/// forms under an all-ones mask: GCC 12's unmasked forms start from an
/// undefined register that -Wuninitialized reports.
struct ZmmLanes {
  using I = __m512i;
  using D = __m512d;
  using U = __v8du;
  using Table = __m512d;
  using Index = __m512i;
  static constexpr std::size_t kWidth = 8;
  static constexpr __mmask8 kAll = 0xff;
  static I set1(std::uint64_t x) {
    return _mm512_set1_epi64(static_cast<long long>(x));
  }
  static I load(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
  static void store(std::uint64_t* p, I v) { _mm512_storeu_si512(p, v); }
  static D zerod() { return _mm512_setzero_pd(); }
  static void stored(double* p, D v) { _mm512_storeu_pd(p, v); }
  static I add(I a, I b) { return I(U(a) + U(b)); }
  static I bxor(I a, I b) { return I(U(a) ^ U(b)); }
  static I bor(I a, I b) { return I(U(a) | U(b)); }
  static I band(I a, I b) { return I(U(a) & U(b)); }
  template <int K>
  static I shl(I a) { return I(U(a) << K); }
  template <int K>
  static I shr(I a) { return I(U(a) >> K); }
  static I mul(I a, I b) { return I(U(a) * U(b)); }  // vpmullq
  static D addd(D a, D b) { return _mm512_add_pd(a, b); }
  static Table table(const double* t) {
    const double twice[8] = {t[0], t[1], t[2], t[3], t[0], t[1], t[2], t[3]};
    return _mm512_loadu_pd(twice);
  }
  static Index index(I o) { return o; }
  static D lookup(Table t, Index o) {
    return _mm512_maskz_permutexvar_pd(kAll, o, t);
  }
  static I pure_defects(I words, I s) {
    const I addr = add(words, shl<3>(shr<6>(s)));
    const I w = _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), kAll,
                                            addr, nullptr, 1);
    // vprorvq rotates by the count mod 64: bit (s & 63) lands in bit 0.
    return band(_mm512_maskz_rorv_epi64(kAll, w, s), set1(1));
  }
  static I mixed_defects(I coop, I s, I x) {
    const I addr = add(coop, shl<3>(s));
    const D p = _mm512_mask_i64gather_pd(_mm512_setzero_pd(), kAll, addr,
                                         nullptr, 1);
    const D u = _mm512_mul_pd(_mm512_cvtepu64_pd(shr<11>(x)),
                              _mm512_set1_pd(0x1.0p-53));
    const __mmask8 coop_lane = _mm512_cmp_pd_mask(u, p, _CMP_LT_OQ);
    return _mm512_maskz_mov_epi64(static_cast<__mmask8>(~coop_lane), set1(1));
  }
  static I flip(I f, I x, I lim) {
    const __mmask8 m = _mm512_cmple_epu64_mask(x, lim);
    return _mm512_mask_xor_epi64(f, m, f, set1(1));
  }
};

}  // namespace
}  // namespace egt::game::batch
#endif  // __AVX512F__ && __AVX512DQ__

namespace egt::game::batch {
namespace {

/// What one game yields: its totals, or (payoff-only) A's payoff.
template <bool Totals>
using LaneOut = std::conditional_t<Totals, LaneTotals, double>;

/// Games [k, k + live) of `in` in G interleaved groups of Ops::kWidth
/// lanes (live <= G * kWidth); out[l] receives game k + l's totals, or
/// only its pay_a when !Totals. Lanes past `live` replay the last live
/// game and are discarded.
template <class Ops, int G, bool MixA, bool MixB, bool Noisy, bool Totals>
inline void stream_groups(const StreamLanes& in, std::size_t k,
                          std::size_t live, LaneOut<Totals>* out) {
  using I = typename Ops::I;
  using D = typename Ops::D;
  constexpr std::size_t W = Ops::kWidth;
  // Draw slots of a round, in the loop's stream order: A's move if A is
  // mixed, B's if B is mixed, then A's and B's noise draws.
  constexpr int kMoveB = MixA ? 1 : 0;
  constexpr int kNoiseA = kMoveB + (MixB ? 1 : 0);
  constexpr std::uint64_t kPerRound = kNoiseA + (Noisy ? 2 : 0);
  // B tracks its own state unless it is a pure B read through its mirror
  // at A's state (payoff-only).
  constexpr bool kOwnStateB = Totals || MixB;

  I ta[G], tb[G], ctr[G], sa[G], sb[G], defects[G];
  D pa[G], pb[G];
  for (int g = 0; g < G; ++g) {
    std::uint64_t a[W], b[W], origin[W];
    for (std::size_t l = 0; l < W; ++l) {
      const std::size_t j = g * W + l < live ? g * W + l : live - 1;
      const LaneGame& game = in.games[k + j];
      a[l] = game.a;
      b[l] = game.b;
      origin[l] = game.origin;
    }
    ta[g] = Ops::load(a);
    tb[g] = Ops::load(b);
    // Draws are 1-based: slot 0 of round r is draw r * kPerRound + 1.
    ctr[g] = Ops::add(Ops::load(origin), Ops::set1(kStreamGamma));
    sa[g] = sb[g] = defects[g] = Ops::set1(0);  // all-cooperate start
    pa[g] = pb[g] = Ops::zerod();
  }
  const I step = Ops::set1(kStreamGamma * kPerRound);
  const I mask = Ops::set1(in.state_mask);
  // The noise bound (thr << 11) - 1, which wraps to 2^64 - 1 at
  // thr = 2^53 (noise 1).
  const I lim = Ops::set1((in.noise_threshold << 11) - 1);
  const typename Ops::Table tab_a = Ops::table(in.pay_a);
  const typename Ops::Table tab_b = Ops::table(in.pay_b);
  const auto draw = [](I c, int slot) {
    I z = slot == 0 ? c
                    : Ops::add(c, Ops::set1(kStreamGamma *
                                            static_cast<std::uint64_t>(slot)));
    z = Ops::bxor(z, Ops::template shr<30>(z));
    z = Ops::mul(z, Ops::set1(kMix1));
    z = Ops::bxor(z, Ops::template shr<27>(z));
    z = Ops::mul(z, Ops::set1(kMix2));
    return Ops::bxor(z, Ops::template shr<31>(z));
  };

  for (std::uint32_t r = 0; r < in.rounds; ++r) {
#pragma GCC unroll 8
    for (int g = 0; g < G; ++g) {
      I fa = MixA ? Ops::mixed_defects(ta[g], sa[g], draw(ctr[g], 0))
                  : Ops::pure_defects(ta[g], sa[g]);
      // A pure B read at sa shares A's word offset and rotate count.
      I fb = MixB ? Ops::mixed_defects(tb[g], sb[g], draw(ctr[g], kMoveB))
                  : Ops::pure_defects(tb[g], kOwnStateB ? sb[g] : sa[g]);
      if constexpr (Noisy) {
        fa = Ops::flip(fa, draw(ctr[g], kNoiseA), lim);
        fb = Ops::flip(fb, draw(ctr[g], kNoiseA + 1), lim);
      }
      // o = 2 * (A defects) + (B defects); B sees it mirrored.
      const I o = Ops::bor(Ops::template shl<1>(fa), fb);
      const typename Ops::Index ix = Ops::index(o);
      pa[g] = Ops::addd(pa[g], Ops::lookup(tab_a, ix));
      if constexpr (Totals) {
        pb[g] = Ops::addd(pb[g], Ops::lookup(tab_b, ix));
        defects[g] = Ops::add(defects[g],
                              Ops::bor(fa, Ops::template shl<32>(fb)));
      }
      sa[g] = Ops::band(Ops::bor(Ops::template shl<2>(sa[g]), o), mask);
      if constexpr (kOwnStateB) {
        const I ob = Ops::bor(Ops::template shl<1>(fb), fa);
        sb[g] = Ops::band(Ops::bor(Ops::template shl<2>(sb[g]), ob), mask);
      }
      ctr[g] = Ops::add(ctr[g], step);
    }
  }

  for (int g = 0; g < G; ++g) {
    double a[W], b[W];
    std::uint64_t d[W];
    Ops::stored(a, pa[g]);
    if constexpr (Totals) {
      Ops::stored(b, pb[g]);
      Ops::store(d, defects[g]);
    }
    for (std::size_t l = 0; l < W && g * W + l < live; ++l) {
      if constexpr (Totals) {
        out[g * W + l] = {a[l], b[l], d[l]};
      } else {
        out[g * W + l] = a[l];
      }
    }
  }
}

/// Games [0, n) of one kind. At one lane: 8 interleaved, the rest in
/// groups of 4, 2 and 1 (a scalar lane is real work, so none is padding).
/// Wider: two groups in flight, and a remainder in the narrowest group
/// that covers it. Out is LaneTotals (totals) or double (payoff-only).
template <class Wide, bool MixA, bool MixB, bool Noisy, class Out>
inline void stream_kind(const StreamLanes& in, std::size_t n, Out* out) {
  constexpr bool T = std::is_same_v<Out, LaneTotals>;
  constexpr std::size_t W = Wide::kWidth;
  std::size_t k = 0;
  if constexpr (W == 1) {
    for (; k + 8 <= n; k += 8) {
      stream_groups<Wide, 8, MixA, MixB, Noisy, T>(in, k, 8, out + k);
    }
    if (k + 4 <= n) {
      stream_groups<Wide, 4, MixA, MixB, Noisy, T>(in, k, 4, out + k);
      k += 4;
    }
    if (k + 2 <= n) {
      stream_groups<Wide, 2, MixA, MixB, Noisy, T>(in, k, 2, out + k);
      k += 2;
    }
    if (k < n) stream_groups<Wide, 1, MixA, MixB, Noisy, T>(in, k, 1, out + k);
  } else {
    for (; k + 2 * W <= n; k += 2 * W) {
      stream_groups<Wide, 2, MixA, MixB, Noisy, T>(in, k, 2 * W, out + k);
    }
    const std::size_t rest = n - k;
    if (rest > W) {
      stream_groups<Wide, 2, MixA, MixB, Noisy, T>(in, k, rest, out + k);
    } else if (rest > 4) {
      stream_groups<Wide, 1, MixA, MixB, Noisy, T>(in, k, rest, out + k);
#if defined(__AVX2__)
    } else if (rest > 0) {
      stream_groups<YmmLanes, 1, MixA, MixB, Noisy, T>(in, k, rest, out + k);
#endif
    }
  }
}

/// Remainders of at most this many games run at one lane (a lone
/// IpdEngine::play game among them): there one group's chain costs more
/// than the scalar lanes' work.
constexpr std::size_t kScalarTail = 2;

/// All of `in` (one player kind) at the Wide lane type.
template <class Wide, class Out>
inline void stream_batch(const StreamLanes& in, std::size_t n, Out* out) {
  if constexpr (Wide::kWidth > 1) {
    const std::size_t tail = n % (2 * Wide::kWidth);
    if (tail > 0 && tail <= kScalarTail) {
      n -= tail;
      StreamLanes last = in;
      last.games += n;
      play_stream_scalar(last, tail, out + n);
    }
  }
  const int kind =
      4 * in.mixed_a + 2 * in.mixed_b + (in.noise_threshold != 0 ? 1 : 0);
  switch (kind) {
    case 0: return stream_kind<Wide, false, false, false>(in, n, out);
    case 1: return stream_kind<Wide, false, false, true>(in, n, out);
    case 2: return stream_kind<Wide, false, true, false>(in, n, out);
    case 3: return stream_kind<Wide, false, true, true>(in, n, out);
    case 4: return stream_kind<Wide, true, false, false>(in, n, out);
    case 5: return stream_kind<Wide, true, false, true>(in, n, out);
    case 6: return stream_kind<Wide, true, true, false>(in, n, out);
    default: return stream_kind<Wide, true, true, true>(in, n, out);
  }
}

}  // namespace
}  // namespace egt::game::batch
