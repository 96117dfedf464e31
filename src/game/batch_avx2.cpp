// AVX2+FMA lane kernels (DESIGN.md §12): the batch memory-one Markov solve
// (all four totals, and the payoff-only kernel of game/mem1_lanes.hpp at
// two 4-lane groups) and the stream pre-draw of the sampled lane kernel.
// Compiled as its own translation unit with -mavx2 -mfma; callers reach it
// only through the runtime dispatch of expected_totals_mem1,
// expected_payoff_mem1 and predraw_block (game/simd.hpp), so the rest of
// the library stays baseline-ISA.
//
// Four pairs (streams) ride the four lanes of each register. All
// arithmetic is vertical (no cross-lane shuffles or horizontal
// reductions), so a pair's result is independent of its lane position and
// of the batch size — the property the fitness tier's bitwise invariants
// rely on. The Markov solve reassociates nothing relative to the scalar
// reference, but FMA contraction perturbs rounding: agreement is 1e-12
// relative. The pre-draw is integer-only and agrees bitwise. Both are
// verified by simcheck --kernels and tests/game/batch_test.cpp.
#include "game/batch.hpp"

#if defined(EGT_SIMD_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "game/mem1_lanes.hpp"

namespace egt::game::batch {

namespace {

/// One group of four pairs: ca[o]/cb[o] hold the outcome-conditioned
/// cooperation probabilities of the four pairs in lanes 0..3.
inline void kernel4(const __m256d ca[4], const __m256d cb[4],
                    const PayoffMatrix& m, std::uint32_t rounds,
                    BatchTotals* out, int valid) {
  const __m256d one = _mm256_set1_pd(1.0);
  // Transition products T[next][cur]: the chain step is
  //   d'[next] = sum_cur d[cur] * T[next][cur].
  __m256d t0[4], t1[4], t2[4], t3[4];
  for (int o = 0; o < 4; ++o) {
    const __m256d ia = _mm256_sub_pd(one, ca[o]);
    const __m256d ib = _mm256_sub_pd(one, cb[o]);
    t0[o] = _mm256_mul_pd(ca[o], cb[o]);
    t1[o] = _mm256_mul_pd(ca[o], ib);
    t2[o] = _mm256_mul_pd(ia, cb[o]);
    t3[o] = _mm256_mul_pd(ia, ib);
  }
  const __m256d va0 = _mm256_set1_pd(m.reward);
  const __m256d va1 = _mm256_set1_pd(m.sucker);
  const __m256d va2 = _mm256_set1_pd(m.temptation);
  const __m256d va3 = _mm256_set1_pd(m.punishment);
  // B's payoff vector mirrors the CD/DC outcomes.
  const __m256d vb1 = va2;
  const __m256d vb2 = va1;

  // All-cooperate start: the whole mass sits on outcome CC.
  __m256d d0 = one;
  __m256d d1 = _mm256_setzero_pd();
  __m256d d2 = _mm256_setzero_pd();
  __m256d d3 = _mm256_setzero_pd();
  __m256d acc_pa = _mm256_setzero_pd();
  __m256d acc_pb = _mm256_setzero_pd();
  __m256d acc_ca = _mm256_setzero_pd();
  __m256d acc_cb = _mm256_setzero_pd();

  for (std::uint32_t r = 0; r < rounds; ++r) {
    const __m256d n0 = _mm256_fmadd_pd(
        d3, t0[3],
        _mm256_fmadd_pd(d2, t0[2],
                        _mm256_fmadd_pd(d1, t0[1], _mm256_mul_pd(d0, t0[0]))));
    const __m256d n1 = _mm256_fmadd_pd(
        d3, t1[3],
        _mm256_fmadd_pd(d2, t1[2],
                        _mm256_fmadd_pd(d1, t1[1], _mm256_mul_pd(d0, t1[0]))));
    const __m256d n2 = _mm256_fmadd_pd(
        d3, t2[3],
        _mm256_fmadd_pd(d2, t2[2],
                        _mm256_fmadd_pd(d1, t2[1], _mm256_mul_pd(d0, t2[0]))));
    const __m256d n3 = _mm256_fmadd_pd(
        d3, t3[3],
        _mm256_fmadd_pd(d2, t3[2],
                        _mm256_fmadd_pd(d1, t3[1], _mm256_mul_pd(d0, t3[0]))));
    acc_pa = _mm256_fmadd_pd(n0, va0, acc_pa);
    acc_pa = _mm256_fmadd_pd(n1, va1, acc_pa);
    acc_pa = _mm256_fmadd_pd(n2, va2, acc_pa);
    acc_pa = _mm256_fmadd_pd(n3, va3, acc_pa);
    acc_pb = _mm256_fmadd_pd(n0, va0, acc_pb);
    acc_pb = _mm256_fmadd_pd(n1, vb1, acc_pb);
    acc_pb = _mm256_fmadd_pd(n2, vb2, acc_pb);
    acc_pb = _mm256_fmadd_pd(n3, va3, acc_pb);
    acc_ca = _mm256_add_pd(acc_ca, _mm256_add_pd(n0, n1));
    acc_cb = _mm256_add_pd(acc_cb, _mm256_add_pd(n0, n2));
    d0 = n0;
    d1 = n1;
    d2 = n2;
    d3 = n3;
  }

  alignas(32) double pa[4], pb[4], cca[4], ccb[4];
  _mm256_store_pd(pa, acc_pa);
  _mm256_store_pd(pb, acc_pb);
  _mm256_store_pd(cca, acc_ca);
  _mm256_store_pd(ccb, acc_cb);
  for (int k = 0; k < valid; ++k) {
    out[k].payoff_a = pa[k];
    out[k].payoff_b = pb[k];
    out[k].coop_a = cca[k];
    out[k].coop_b = ccb[k];
  }
}

}  // namespace

void expected_totals_mem1_avx2(const Mem1Batch& batch,
                               const PayoffMatrix& payoff,
                               std::uint32_t rounds, BatchTotals* out) {
  const std::size_t n = batch.size();
  std::size_t k = 0;
  __m256d ca[4], cb[4];
  for (; k + 4 <= n; k += 4) {
    for (int o = 0; o < 4; ++o) {
      ca[o] = _mm256_loadu_pd(batch.pa(o).data() + k);
      cb[o] = _mm256_loadu_pd(batch.pb(o).data() + k);
    }
    kernel4(ca, cb, payoff, rounds, out + k, 4);
  }
  if (k < n) {
    // Remainder group: pad the empty lanes with a benign probability —
    // lane arithmetic is vertical, so padding cannot perturb live lanes.
    alignas(32) double buf_a[4][4], buf_b[4][4];
    const int valid = static_cast<int>(n - k);
    for (int o = 0; o < 4; ++o) {
      for (int l = 0; l < 4; ++l) {
        buf_a[o][l] = l < valid ? batch.pa(o)[k + l] : 0.5;
        buf_b[o][l] = l < valid ? batch.pb(o)[k + l] : 0.5;
      }
      ca[o] = _mm256_load_pd(buf_a[o]);
      cb[o] = _mm256_load_pd(buf_b[o]);
    }
    kernel4(ca, cb, payoff, rounds, out + k, valid);
  }
}

void payoff_mem1_avx2(const Mem1Lanes& in, std::size_t n, double* out) {
  payoff_batch<Ymm>(in, n, out);
}

namespace {

/// a * b mod 2^64 per 64-bit lane, from three 32x32->64 multiplies:
/// b = b_hi * 2^32 + b_lo, and the a_hi * b_hi term vanishes mod 2^64.
inline __m256i mul64(__m256i a, __m256i b_lo, __m256i b_hi) {
  const __m256i lo = _mm256_mul_epu32(a, b_lo);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b_lo),
                       _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/// util::mix64 on four lanes.
struct Mix64x4 {
  __m256i c1_lo = _mm256_set1_epi64x(0xbf58476d1ce4e5b9LL & 0xffffffffLL);
  __m256i c1_hi = _mm256_set1_epi64x(0xbf58476d1ce4e5b9ULL >> 32);
  __m256i c2_lo = _mm256_set1_epi64x(0x94d049bb133111ebLL & 0xffffffffLL);
  __m256i c2_hi = _mm256_set1_epi64x(0x94d049bb133111ebULL >> 32);

  __m256i operator()(__m256i z) const {
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 30));
    z = mul64(z, c1_lo, c1_hi);
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 27));
    z = mul64(z, c2_lo, c2_hi);
    return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
  }
};

}  // namespace

// Four streams per register, one register per group of four lanes. Every
// step is 64-bit integer arithmetic mod 2^64 and the flip test is an exact
// integer compare ((x >> 11) and the threshold are both below 2^63, so the
// signed compare is exact), hence the output equals predraw_block_scalar
// bit-for-bit. Padding lanes of a short last group repeat a live origin;
// their draws land in unused DrawBlock slots and their flip bits are
// masked off.
void predraw_block_avx2(const std::uint64_t* origin, std::size_t lanes,
                        const DrawLayout& layout, std::uint64_t first_round,
                        std::uint32_t rounds, std::uint64_t noise_threshold,
                        DrawBlock& out) {
  // kSpread[m]: the 4 bits of m moved to the even bit positions 0, 2, 4, 6.
  static constexpr std::uint8_t kSpread[16] = {
      0x00, 0x01, 0x04, 0x05, 0x10, 0x11, 0x14, 0x15,
      0x40, 0x41, 0x44, 0x45, 0x50, 0x51, 0x54, 0x55};
  const Mix64x4 mix;
  const __m256i thr =
      _mm256_set1_epi64x(static_cast<long long>(noise_threshold));
  std::fill_n(out.flip, rounds, std::uint16_t{0});
  for (std::size_t g = 0; g < lanes; g += 4) {
    alignas(32) std::uint64_t o[4];
    for (std::size_t l = 0; l < 4; ++l) {
      o[l] = origin[std::min(g + l, lanes - 1)];
    }
    const __m256i base =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(o));
    const int live = (1 << std::min<std::size_t>(4, lanes - g)) - 1;
    const auto draw = [&](std::uint64_t c, int slot) {
      const auto step = static_cast<long long>(
          util::StreamRng::kGamma * (c + static_cast<std::uint64_t>(slot)));
      return mix(_mm256_add_epi64(base, _mm256_set1_epi64x(step)));
    };
    // One bit per lane: lane l's draw at `slot` is a flip.
    const auto flips = [&](std::uint64_t c, int slot) {
      if (slot < 0) return 0;
      const __m256i x = draw(c, slot);
      return _mm256_movemask_pd(_mm256_castsi256_pd(
                 _mm256_cmpgt_epi64(thr, _mm256_srli_epi64(x, 11)))) &
             live;
    };
    std::uint64_t c = first_round * layout.per_round + 1;
    for (std::uint32_t t = 0; t < rounds; ++t, c += layout.per_round) {
      if (layout.move_a >= 0) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(&out.move_a[t][g]),
                            draw(c, layout.move_a));
      }
      if (layout.move_b >= 0) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(&out.move_b[t][g]),
                            draw(c, layout.move_b));
      }
      const unsigned x = 2u * kSpread[flips(c, layout.noise_a)] +
                         kSpread[flips(c, layout.noise_b)];
      out.flip[t] = static_cast<std::uint16_t>(out.flip[t] | x << (2 * g));
    }
  }
}

}  // namespace egt::game::batch

#endif  // EGT_SIMD_AVX2
