#include "game/batch.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "game/markov.hpp"
#include "game/named.hpp"
#include "game/simd.hpp"
#include "game/state.hpp"
#include "util/rng.hpp"

namespace egt::game::batch {
namespace {

const PayoffMatrix kPayoff = paper_payoff();

double rel_err(double got, double want) {
  const double scale = std::max(1.0, std::fabs(want));
  return std::fabs(got - want) / scale;
}

Mem1Batch random_mixed_batch(std::size_t n, double eps,
                             std::vector<Strategy>& a_out,
                             std::vector<Strategy>& b_out,
                             util::Xoshiro256& rng) {
  Mem1Batch batch;
  for (std::size_t k = 0; k < n; ++k) {
    a_out.emplace_back(MixedStrategy::random(1, rng));
    b_out.emplace_back(MixedStrategy::random(1, rng));
    batch.push_pair(a_out.back(), b_out.back(), eps);
  }
  return batch;
}

// Every batch size around the 4-lane group width — 1..9 covers full
// groups, bare remainders, and the empty-remainder case — must agree with
// the markov reference per pair to 1e-12 relative, under the active
// kernel (AVX2 where compiled+supported) and the forced-scalar one.
TEST(Mem1BatchKernel, RemainderLaneSizesMatchMarkovReference) {
  util::Xoshiro256 rng(2024);
  const bool forced = simd::force_scalar();
  for (const double eps : {0.0, 0.05}) {
    for (std::size_t n = 1; n <= 9; ++n) {
      std::vector<Strategy> as, bs;
      const Mem1Batch batch = random_mixed_batch(n, eps, as, bs, rng);
      std::vector<BatchTotals> got(n);
      for (const bool force : {false, true}) {
        simd::set_force_scalar(forced || force);
        expected_totals_mem1(batch, kPayoff, 200, got);
        for (std::size_t k = 0; k < n; ++k) {
          const GameResult want =
              markov::expected_game_mem1(as[k], bs[k], kPayoff, 200, eps);
          EXPECT_LT(rel_err(got[k].payoff_a, want.payoff_a), 1e-12)
              << "n=" << n << " k=" << k << " force_scalar=" << force;
          EXPECT_LT(rel_err(got[k].payoff_b, want.payoff_b), 1e-12)
              << "n=" << n << " k=" << k << " force_scalar=" << force;
        }
      }
      simd::set_force_scalar(forced);
    }
  }
}

// The scalar fallback replicates markov::finite_totals_mem1
// operation-for-operation: payoffs must be bit-identical, not just close.
TEST(Mem1BatchKernel, ScalarKernelBitIdenticalToMarkov) {
  util::Xoshiro256 rng(7);
  std::vector<Strategy> as, bs;
  const Mem1Batch batch = random_mixed_batch(17, 0.01, as, bs, rng);
  std::vector<BatchTotals> got(batch.size());
  expected_totals_mem1_scalar(batch, kPayoff, 200, got.data());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const GameResult want =
        markov::expected_game_mem1(as[k], bs[k], kPayoff, 200, 0.01);
    EXPECT_EQ(got[k].payoff_a, want.payoff_a) << "k=" << k;
    EXPECT_EQ(got[k].payoff_b, want.payoff_b) << "k=" << k;
  }
}

// Lane arithmetic is strictly vertical: a pair's result must not depend on
// its lane position or on the batch size. A batch of one must equal the
// same pair inside a batch of nine, bitwise, under the active kernel.
TEST(Mem1BatchKernel, LanePositionAndBatchSizeIndependent) {
  util::Xoshiro256 rng(99);
  std::vector<Strategy> as, bs;
  const Mem1Batch big = random_mixed_batch(9, 0.02, as, bs, rng);
  std::vector<BatchTotals> batched(9);
  expected_totals_mem1(big, kPayoff, 200, batched);
  for (std::size_t k = 0; k < 9; ++k) {
    Mem1Batch one;
    one.push_pair(as[k], bs[k], 0.02);
    std::vector<BatchTotals> solo(1);
    expected_totals_mem1(one, kPayoff, 200, solo);
    EXPECT_EQ(solo[0].payoff_a, batched[k].payoff_a) << "k=" << k;
    EXPECT_EQ(solo[0].payoff_b, batched[k].payoff_b) << "k=" << k;
    EXPECT_EQ(solo[0].coop_a, batched[k].coop_a) << "k=" << k;
    EXPECT_EQ(solo[0].coop_b, batched[k].coop_b) << "k=" << k;
  }
}

// AVX2 and scalar kernels must agree to 1e-12 relative (when the AVX2 TU
// is compiled in and the CPU supports it; trivially passes otherwise).
TEST(Mem1BatchKernel, Avx2AgreesWithScalarReference) {
  if (!simd::compiled_with_avx2() || !simd::cpu_supports_avx2()) {
    GTEST_SKIP() << "AVX2 kernel unavailable on this build/CPU";
  }
  util::Xoshiro256 rng(123);
  std::vector<Strategy> as, bs;
  const Mem1Batch batch = random_mixed_batch(33, 0.1, as, bs, rng);
  std::vector<BatchTotals> avx(batch.size()), sca(batch.size());
  expected_totals_mem1_avx2(batch, kPayoff, 200, avx.data());
  expected_totals_mem1_scalar(batch, kPayoff, 200, sca.data());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    EXPECT_LT(rel_err(avx[k].payoff_a, sca[k].payoff_a), 1e-12) << "k=" << k;
    EXPECT_LT(rel_err(avx[k].payoff_b, sca[k].payoff_b), 1e-12) << "k=" << k;
    EXPECT_LT(rel_err(avx[k].coop_a, sca[k].coop_a), 1e-12) << "k=" << k;
    EXPECT_LT(rel_err(avx[k].coop_b, sca[k].coop_b), 1e-12) << "k=" << k;
  }
}

// The payoff-only kernel runs each lane through exactly the operations
// that produce the AVX2 totals kernel's payoff_a, so at every width the
// CPU has (8 and 16 pairs in flight) it must equal that payoff bitwise,
// and the scalar width the scalar totals' payoff_a. Batch sizes 0..40
// cover every full-group, remainder and narrowest-group shape of both
// SIMD widths; a batch of one must equal the same pair inside a batch.
TEST(Mem1BatchKernel, PayoffKernelBitIdenticalToTotals) {
  const bool avx2 = simd::compiled_with_avx2() && simd::cpu_supports_avx2();
  std::vector<int> widths{1};
  if (avx2) widths.push_back(8);
  if (avx2 && simd::cpu_supports_avx512()) widths.push_back(16);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const PayoffMatrix payoffs[] = {kPayoff, PayoffMatrix{3.25, -0.4, 4.7, 0.15}};
  util::Xoshiro256 rng(2026);
  std::uint64_t compared = 0;
  for (const std::uint32_t rounds : {1u, 2u, 3u, 7u, 199u, 200u, 1000u}) {
    for (const double eps : {0.0, 0.02, 0.25}) {
      for (const PayoffMatrix& payoff : payoffs) {
        for (std::size_t n = 0; n <= 40; ++n) {
          Mem1Batch batch;
          std::vector<Mem1Batch> solo(n);
          for (std::size_t k = 0; k < n; ++k) {
            const Strategy a =
                k % 3 == 0 ? Strategy(PureStrategy::random(1, rng))
                           : Strategy(MixedStrategy::random(1, rng));
            const Strategy b = MixedStrategy::random(1, rng);
            batch.push_pair(a, b, eps);
            solo[k].push_pair(a, b, eps);
          }
          std::vector<BatchTotals> sca(n), vec(n);
          expected_totals_mem1_scalar(batch, payoff, rounds, sca.data());
          if (avx2) {
            expected_totals_mem1_avx2(batch, payoff, rounds, vec.data());
          }
          for (const int lanes : widths) {
            const std::vector<BatchTotals>& want = lanes == 1 ? sca : vec;
            std::vector<double> got(n + 1, -1.0);
            expected_payoff_mem1_lanes(batch, payoff, rounds, lanes,
                                       got.data());
            ASSERT_EQ(got[n], -1.0) << "wrote past the batch, n=" << n;
            for (std::size_t k = 0; k < n; ++k) {
              double one = 0.0;
              expected_payoff_mem1_lanes(solo[k], payoff, rounds, lanes, &one);
              ASSERT_EQ(bits(got[k]), bits(want[k].payoff_a))
                  << "lanes=" << lanes << " rounds=" << rounds
                  << " eps=" << eps << " n=" << n << " k=" << k;
              ASSERT_EQ(bits(one), bits(got[k]))
                  << "batch of one, lanes=" << lanes << " n=" << n
                  << " k=" << k;
              ++compared;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 0u);
}

// The dispatched entry point takes the width simd::mem1_lanes() names;
// forced scalar is width 1 and equals the scalar totals' payoff_a.
TEST(Mem1BatchKernel, PayoffDispatchFollowsMem1Lanes) {
  util::Xoshiro256 rng(31);
  std::vector<Strategy> as, bs;
  const Mem1Batch batch = random_mixed_batch(21, 0.02, as, bs, rng);
  const bool forced = simd::force_scalar();
  for (const bool force : {false, true}) {
    simd::set_force_scalar(forced || force);
    const int lanes = simd::mem1_lanes();
    if (forced || force) {
      EXPECT_EQ(lanes, 1);
    }
    std::vector<double> got(batch.size()), want(batch.size());
    expected_payoff_mem1(batch, kPayoff, 200, got);
    expected_payoff_mem1_lanes(batch, kPayoff, 200, lanes, want.data());
    std::vector<BatchTotals> sca(batch.size());
    expected_totals_mem1_scalar(batch, kPayoff, 200, sca.data());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                std::bit_cast<std::uint64_t>(want[k]))
          << "lanes=" << lanes << " k=" << k;
      if (lanes == 1) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                  std::bit_cast<std::uint64_t>(sca[k].payoff_a))
            << "k=" << k;
      }
    }
  }
  simd::set_force_scalar(forced);
}

// The zero-allocation walker is a drop-in for markov::exact_pure_game:
// bitwise-identical results across memory depths and round counts,
// including rounds shorter than the transient.
TEST(PureWalker, ExactPureGameFastBitIdenticalToMarkov) {
  util::Xoshiro256 rng(5);
  for (const int memory : {0, 1, 2, 3, 4}) {
    for (const std::uint32_t rounds : {1u, 2u, 7u, 200u, 100000u}) {
      for (int rep = 0; rep < 8; ++rep) {
        const PureStrategy a = PureStrategy::random(memory, rng);
        const PureStrategy b = PureStrategy::random(memory, rng);
        const GameResult want = markov::exact_pure_game(a, b, kPayoff, rounds);
        const GameResult got = exact_pure_game_fast(a, b, kPayoff, rounds);
        ASSERT_EQ(got.payoff_a, want.payoff_a)
            << "memory=" << memory << " rounds=" << rounds;
        ASSERT_EQ(got.payoff_b, want.payoff_b);
        ASSERT_EQ(got.coop_a, want.coop_a);
        ASSERT_EQ(got.coop_b, want.coop_b);
        ASSERT_EQ(got.rounds, want.rounds);
      }
    }
  }
}

// run_pure_game must replicate the sequential round loop bit-for-bit. The
// LinearSearch engine still runs the legacy loop (no fast path), so it is
// the executable reference for the Indexed fast path.
TEST(PureWalker, RunPureGameMatchesLegacyRoundLoop) {
  util::Xoshiro256 rng(11);
  // Non-integral payoffs force the walker to replay every round.
  const PayoffMatrix fractional{2.5, -0.25, 4.125, 0.75};
  for (const PayoffMatrix& payoff : {kPayoff, fractional}) {
    const IpdParams params{payoff, 200, 0.0};
    for (const int memory : {1, 2, 3}) {
      const IpdEngine indexed(memory, params, LookupMode::Indexed);
      const IpdEngine linear(memory, params, LookupMode::LinearSearch);
      for (int rep = 0; rep < 16; ++rep) {
        const PureStrategy a = PureStrategy::random(memory, rng);
        const PureStrategy b = PureStrategy::random(memory, rng);
        const GameResult fast = indexed.play(a, b, util::StreamRng(0, 0));
        const GameResult loop = linear.play(a, b, util::StreamRng(0, 0));
        ASSERT_EQ(fast.payoff_a, loop.payoff_a) << "memory=" << memory;
        ASSERT_EQ(fast.payoff_b, loop.payoff_b);
        ASSERT_EQ(fast.coop_a, loop.coop_a);
        ASSERT_EQ(fast.coop_b, loop.coop_b);
      }
    }
  }
}

TEST(PureWalker, IntegerExactPayoffGate) {
  EXPECT_TRUE(integer_exact_payoff(kPayoff, 200));
  EXPECT_TRUE(integer_exact_payoff(PayoffMatrix{5, -1, 8, 0}, 1000000));
  EXPECT_FALSE(integer_exact_payoff(PayoffMatrix{2.5, 0, 4, 1}, 200));
  // Integral but too large: partial sums would leave the exact range.
  EXPECT_FALSE(integer_exact_payoff(PayoffMatrix{1e15, 0, 4, 1}, 1u << 20));
}

// Noisy games must keep the stochastic engine path (the walker consumes no
// RNG and would change trajectories): same seed same result, and the fast
// path only engages at noise == 0.
TEST(PureWalker, NoisyGamesKeepLegacyEnginePath) {
  const IpdParams noisy{kPayoff, 200, 0.1};
  const IpdEngine engine(2, noisy);
  util::Xoshiro256 rng(3);
  const PureStrategy a = PureStrategy::random(2, rng);
  const PureStrategy b = PureStrategy::random(2, rng);
  const GameResult r1 = engine.play(a, b, util::StreamRng(42, 7));
  const GameResult r2 = engine.play(a, b, util::StreamRng(42, 7));
  EXPECT_EQ(r1.payoff_a, r2.payoff_a);
  const GameResult other = engine.play(a, b, util::StreamRng(42, 8));
  // Different stream, (almost surely) different noise realization.
  EXPECT_EQ(r1.rounds, other.rounds);
}

// -- sampled lane kernel ------------------------------------------------------

/// A random pure or mixed strategy of the given memory depth.
Strategy random_player(int memory, bool mixed, util::Xoshiro256& rng) {
  if (mixed) return MixedStrategy::random(memory, rng);
  return PureStrategy::random(memory, rng);
}

bool same_result(const GameResult& x, const GameResult& y) {
  return x.payoff_a == y.payoff_a && x.payoff_b == y.payoff_b &&
         x.coop_a == y.coop_a && x.coop_b == y.coop_b && x.rounds == y.rounds;
}

/// Random pairs of every pure/mixed combination, each with its own stream.
struct StreamCase {
  std::vector<Strategy> a, b;
  std::vector<util::StreamRng> rng;

  StreamCase(std::size_t n, int memory, util::Xoshiro256& gen) {
    for (std::size_t k = 0; k < n; ++k) {
      a.push_back(random_player(memory, k % 2 == 1, gen));
      b.push_back(random_player(memory, k % 4 >= 2, gen));
      rng.emplace_back(gen(), gen());
    }
  }
  std::vector<StreamGame> games() const {
    std::vector<StreamGame> g;
    for (std::size_t k = 0; k < a.size(); ++k) {
      g.push_back({Player::of(a[k]), Player::of(b[k]), rng[k]});
    }
    return g;
  }
};

// The lane kernel against the LinearSearch round loop, bitwise: random
// pure and mixed pairs at memory 0-6, noise in {0, 0.02, 0.5, 1}, round
// counts on both sides of the 64-round pre-draw block, under the active
// and the forced-scalar pre-draw.
TEST(SampledLaneKernel, BitIdenticalToLinearSearchRoundLoop) {
  util::Xoshiro256 gen(2026);
  const PayoffMatrix fractional{2.5, -0.25, 4.125, 0.75};
  const bool forced = simd::force_scalar();
  for (const bool force : {false, true}) {
    simd::set_force_scalar(forced || force);
    for (int memory = 0; memory <= kMaxMemory; ++memory) {
      for (const double noise : {0.0, 0.02, 0.5, 1.0}) {
        for (const std::uint32_t rounds : {1u, 63u, 64u, 65u, 200u, 1000u}) {
          if (memory == kMaxMemory && rounds == 1000u) continue;  // runtime
          const PayoffMatrix& payoff = rounds % 2 ? fractional : kPayoff;
          const IpdParams params{payoff, rounds, noise};
          const IpdEngine linear(memory, params, LookupMode::LinearSearch);
          const StreamCase c(11, memory, gen);  // one lane group + remainder
          const std::vector<StreamGame> games = c.games();
          std::vector<GameResult> got(games.size());
          play_stream_games(games, memory, params, got);
          for (std::size_t k = 0; k < games.size(); ++k) {
            const GameResult want = linear.play(c.a[k], c.b[k], c.rng[k]);
            ASSERT_TRUE(same_result(got[k], want))
                << "memory=" << memory << " noise=" << noise
                << " rounds=" << rounds << " k=" << k
                << " force_scalar=" << force << ": " << got[k].payoff_a
                << " vs " << want.payoff_a;
          }
        }
      }
    }
  }
  simd::set_force_scalar(forced);
}

// A game's result must not depend on the batch size, its lane position or
// its neighbours: every prefix batch of 1..17 games (one lane, full
// groups, remainders) gives each game the value it gets alone.
TEST(SampledLaneKernel, LanePositionAndBatchSizeIndependent) {
  util::Xoshiro256 gen(31);
  const IpdParams params{kPayoff, 200, 0.02};
  const StreamCase c(17, 3, gen);
  const std::vector<StreamGame> games = c.games();
  std::vector<GameResult> solo(games.size());
  for (std::size_t k = 0; k < games.size(); ++k) {
    play_stream_games({&games[k], 1}, 3, params, {&solo[k], 1});
  }
  for (std::size_t n = 1; n <= games.size(); ++n) {
    std::vector<GameResult> got(n);
    play_stream_games({games.data(), n}, 3, params, got);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_TRUE(same_result(got[k], solo[k])) << "n=" << n << " k=" << k;
    }
  }
  // Reversed order puts every game in a different lane.
  std::vector<StreamGame> rev(games.rbegin(), games.rend());
  std::vector<GameResult> got(rev.size());
  play_stream_games(rev, 3, params, got);
  for (std::size_t k = 0; k < rev.size(); ++k) {
    ASSERT_TRUE(same_result(got[k], solo[rev.size() - 1 - k])) << "k=" << k;
  }
}

// IpdEngine::play (Indexed) is the kernel with a batch of one, and it reads
// the stream from its current position like the loop does.
TEST(SampledLaneKernel, EnginePlayDelegatesFromStreamPosition) {
  util::Xoshiro256 gen(8);
  const IpdParams params{kPayoff, 150, 0.1};
  const IpdEngine indexed(2, params);
  const IpdEngine linear(2, params, LookupMode::LinearSearch);
  for (int rep = 0; rep < 16; ++rep) {
    const Strategy a = random_player(2, rep % 2 == 0, gen);
    const Strategy b = random_player(2, rep % 3 == 0, gen);
    util::StreamRng rng(gen(), gen());
    for (int skip = 0; skip < rep; ++skip) rng();
    EXPECT_TRUE(same_result(indexed.play(a, b, rng), linear.play(a, b, rng)))
        << "rep=" << rep;
  }
}

// The AVX2 pre-draw equals its scalar twin bit-for-bit (both are integer
// arithmetic mod 2^64), for every lane count and layout.
TEST(SampledLaneKernel, Avx2PreDrawBitIdenticalToScalar) {
  if (!simd::compiled_with_avx2() || !simd::cpu_supports_avx2()) {
    GTEST_SKIP() << "AVX2 kernel unavailable on this build/CPU";
  }
  util::Xoshiro256 gen(77);
  const DrawLayout layouts[] = {{2, -1, -1, 0, 1}, {4, 0, 1, 2, 3},
                                {1, 0, -1, -1, -1}, {3, -1, 0, 1, 2}};
  for (const DrawLayout& layout : layouts) {
    for (std::size_t lanes = 1; lanes <= kLanes; ++lanes) {
      std::uint64_t origin[kLanes];
      for (auto& o : origin) o = gen();
      const std::uint64_t threshold = unit_threshold(0.3);
      DrawBlock sca{}, avx{};
      predraw_block_scalar(origin, lanes, layout, 5, kBlockRounds, threshold,
                           sca);
      predraw_block_avx2(origin, lanes, layout, 5, kBlockRounds, threshold,
                         avx);
      for (std::uint32_t t = 0; t < kBlockRounds; ++t) {
        ASSERT_EQ(sca.flip[t], avx.flip[t]) << "lanes=" << lanes;
      }
      for (std::size_t l = 0; l < lanes; ++l) {
        for (std::uint32_t t = 0; t < kBlockRounds; ++t) {
          if (layout.move_a >= 0) ASSERT_EQ(sca.move_a[t][l], avx.move_a[t][l]);
          if (layout.move_b >= 0) ASSERT_EQ(sca.move_b[t][l], avx.move_b[t][l]);
        }
      }
    }
  }
}

// uniform01(x) < p <=> (x >> 11) < unit_threshold(p), at the edges of the
// 53-bit grid.
TEST(SampledLaneKernel, UnitThresholdIdentity) {
  for (const double p : {0.0, 1.0, 0.5, 0.02, 1e-300, 0x1.0p-53,
                         1.0 - 0x1.0p-53, 0.1}) {
    const std::uint64_t t = unit_threshold(p);
    for (const std::uint64_t k : {std::uint64_t{0}, t - 1, t, t + 1,
                                  (std::uint64_t{1} << 53) - 1}) {
      if (k >= (std::uint64_t{1} << 53)) continue;
      const std::uint64_t x = k << 11;
      EXPECT_EQ(util::to_unit_double(x) < p, k < t) << "p=" << p << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace egt::game::batch
