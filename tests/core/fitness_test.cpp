#include "core/fitness.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/engine.hpp"
#include "game/named.hpp"
#include "util/rng.hpp"

namespace egt::core {
namespace {

SimConfig tiny_config() {
  SimConfig cfg;
  cfg.ssets = 8;
  cfg.memory = 1;
  cfg.seed = 5;
  return cfg;
}

pop::Population known_population() {
  // ALLC, ALLD, TFT, WSLS repeated twice: hand-checkable payoffs.
  std::vector<game::Strategy> ss;
  for (int rep = 0; rep < 2; ++rep) {
    ss.emplace_back(game::named::all_c(1));
    ss.emplace_back(game::named::all_d(1));
    ss.emplace_back(game::named::tit_for_tat(1));
    ss.emplace_back(game::named::win_stay_lose_shift(1));
  }
  return pop::Population(std::move(ss));
}

TEST(PairEvaluator, SampledMatchesIpdEngineDirectly) {
  const SimConfig cfg = tiny_config();
  const PairEvaluator eval(cfg);
  const auto pop = known_population();
  // ALLD (1) vs ALLC (0): temptation every round.
  EXPECT_DOUBLE_EQ(eval.payoff(pop, 1, 0, 0), 800.0);
  EXPECT_DOUBLE_EQ(eval.payoff(pop, 0, 1, 0), 0.0);
}

TEST(PairEvaluator, AnalyticAgreesWithSampledForPureNoiseFree) {
  SimConfig cfg = tiny_config();
  const PairEvaluator sampled(cfg);
  cfg.fitness_mode = FitnessMode::Analytic;
  const PairEvaluator analytic(cfg);
  const auto pop = known_population();
  for (pop::SSetId i = 0; i < pop.size(); ++i) {
    for (pop::SSetId j = 0; j < pop.size(); ++j) {
      if (i == j) continue;
      ASSERT_DOUBLE_EQ(sampled.payoff(pop, i, j, 0),
                       analytic.payoff(pop, i, j, 0))
          << i << " vs " << j;
    }
  }
}

TEST(PairEvaluator, GenerationKeyChangesSampledStochasticGames) {
  SimConfig cfg = tiny_config();
  cfg.space = pop::StrategySpace::Mixed;
  const PairEvaluator eval(cfg);
  util::Xoshiro256 rng(2);
  auto pop = pop::Population::random_mixed(4, 1, rng);
  const double g0 = eval.payoff(pop, 0, 1, 0);
  const double g0_again = eval.payoff(pop, 0, 1, 0);
  const double g1 = eval.payoff(pop, 0, 1, 1);
  EXPECT_DOUBLE_EQ(g0, g0_again);
  EXPECT_NE(g0, g1);
}

TEST(BlockFitness, FullBlockMatchesManualSums) {
  SimConfig cfg = tiny_config();
  cfg.fitness_scale = FitnessScale::Total;
  BlockFitness fit(cfg, 0, cfg.ssets);
  const auto pop = known_population();
  fit.initialize(pop);
  const PairEvaluator eval(cfg);
  for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
    double sum = 0.0;
    for (pop::SSetId j = 0; j < cfg.ssets; ++j) {
      if (j != i) sum += eval.payoff(pop, i, j, 0);
    }
    ASSERT_DOUBLE_EQ(fit.fitness(i), sum) << i;
  }
}

TEST(BlockFitness, PerRoundAverageScaleIsWithinPayoffBounds) {
  SimConfig cfg = tiny_config();
  cfg.fitness_scale = FitnessScale::PerRoundAverage;
  BlockFitness fit(cfg, 0, cfg.ssets);
  const auto pop = known_population();
  fit.initialize(pop);
  for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
    ASSERT_GE(fit.fitness(i), cfg.game.payoff.sucker);
    ASSERT_LE(fit.fitness(i), cfg.game.payoff.temptation);
  }
}

TEST(BlockFitness, PartialBlocksAgreeWithFullEvaluation) {
  const SimConfig cfg = tiny_config();
  const auto pop = known_population();
  BlockFitness full(cfg, 0, cfg.ssets);
  full.initialize(pop);
  for (pop::SSetId b = 0; b < cfg.ssets; b += 3) {
    const pop::SSetId e = std::min<pop::SSetId>(b + 3, cfg.ssets);
    BlockFitness part(cfg, b, e);
    part.initialize(pop);
    for (pop::SSetId i = b; i < e; ++i) {
      ASSERT_DOUBLE_EQ(part.fitness(i), full.fitness(i));
    }
  }
}

TEST(BlockFitness, CachedModeUpdatesIncrementallyOnChange) {
  SimConfig cfg = tiny_config();
  cfg.fitness_mode = FitnessMode::Analytic;
  auto pop = known_population();

  BlockFitness cached(cfg, 0, cfg.ssets);
  cached.initialize(pop);

  // Change SSet 1 from ALLD to WSLS and update incrementally.
  pop.set_strategy(1, game::named::win_stay_lose_shift(1));
  cached.strategy_changed(1, pop, /*generation=*/3);

  // A fresh evaluation of the new population must agree exactly.
  BlockFitness fresh(cfg, 0, cfg.ssets);
  fresh.initialize(pop);
  for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
    ASSERT_NEAR(cached.fitness(i), fresh.fitness(i), 1e-9) << i;
  }
}

TEST(BlockFitness, CachedModeSkipsWorkAcrossQuietGenerations) {
  SimConfig cfg = tiny_config();
  cfg.fitness_mode = FitnessMode::SampledFrozen;
  const auto pop = known_population();
  BlockFitness fit(cfg, 0, cfg.ssets);
  fit.initialize(pop);
  const auto pairs_after_init = fit.pairs_evaluated();
  for (std::uint64_t g = 0; g < 10; ++g) {
    fit.begin_generation(pop, g);
  }
  EXPECT_EQ(fit.pairs_evaluated(), pairs_after_init);
}

TEST(BlockFitness, SampledModeReplaysEveryGeneration) {
  SimConfig cfg = tiny_config();
  cfg.fitness_mode = FitnessMode::Sampled;
  const auto pop = known_population();
  BlockFitness fit(cfg, 0, cfg.ssets);
  fit.initialize(pop);
  const auto before = fit.pairs_evaluated();
  fit.begin_generation(pop, 1);
  EXPECT_EQ(fit.pairs_evaluated() - before,
            static_cast<std::uint64_t>(cfg.ssets) * (cfg.ssets - 1));
}

TEST(BlockFitness, QueriesOutsideBlockThrow) {
  const SimConfig cfg = tiny_config();
  BlockFitness fit(cfg, 2, 5);
  EXPECT_THROW((void)fit.fitness(1), std::invalid_argument);
  EXPECT_THROW((void)fit.fitness(5), std::invalid_argument);
}

}  // namespace
}  // namespace egt::core

namespace egt::core {
namespace {

TEST(ExactSum, FixedIsTheScaledValueTruncatedTowardZero) {
  util::Xoshiro256 rng(2024);
  for (int k = 0; k < 200000; ++k) {
    const int exp = static_cast<int>(rng() % 52) - 11;  // |v| in [2^-11, 2^41)
    const double v =
        std::ldexp(1.0 + static_cast<double>(rng() >> 12) * 0x1p-52, exp) *
        (rng() % 2 == 0 ? 1.0 : -1.0);
    ASSERT_TRUE(ExactSum::fixed(v) ==
                static_cast<ExactSum::Fixed>(std::ldexp(v, 64)))
        << v;
    ASSERT_TRUE(ExactSum::fixed(-v) == -ExactSum::fixed(v)) << v;
  }
  EXPECT_TRUE(ExactSum::fixed(0.0) == 0);
  EXPECT_TRUE(ExactSum::fixed(-0.0) == 0);
}

TEST(ExactSum, ValueIgnoresOrderAndHistory) {
  // Terms whose double sum depends on the order: the exact sum does not,
  // and a term swapped out and back in leaves no trace.
  std::vector<double> terms;
  util::Xoshiro256 rng(7);
  for (int k = 0; k < 1000; ++k) {
    terms.push_back(static_cast<double>(rng() >> 11) * 0x1p-53 * 600.0 -
                    300.0);
  }
  ExactSum forward, backward, churned;
  for (const double t : terms) forward.add(t);
  for (auto it = terms.rbegin(); it != terms.rend(); ++it) backward.add(*it);
  for (const double t : terms) {
    churned.add(t * 3.7);
    churned.add(t);
    churned.add(-(t * 3.7));
  }
  EXPECT_EQ(forward.value(), backward.value());
  EXPECT_EQ(forward.value(), churned.value());
  double naive_forward = 0.0, naive_backward = 0.0;
  for (const double t : terms) naive_forward += t;
  for (auto it = terms.rbegin(); it != terms.rend(); ++it) {
    naive_backward += *it;
  }
  EXPECT_NE(naive_forward, naive_backward) << "pick terms the order moves";
}

}  // namespace
}  // namespace egt::core
