// SIMD/SoA batch fitness path (DESIGN.md §12): routing rules, kernel
// equivalence at the fitness tier, and the scalar fallback for pairs the
// batch kernel must not touch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/fitness.hpp"
#include "game/simd.hpp"
#include "game/spec/registry.hpp"
#include "pop/graph.hpp"
#include "pop/population.hpp"
#include "util/rng.hpp"

namespace egt::core {
namespace {

SimConfig analytic_config(pop::SSetId ssets, int memory) {
  SimConfig cfg;
  cfg.ssets = ssets;
  cfg.memory = memory;
  cfg.seed = 4242;
  cfg.fitness_mode = FitnessMode::Analytic;
  cfg.dedup = false;  // exercise the row-batch path; tests opt back in
  return cfg;
}

/// Pins the kernel for a scope and restores the previous setting (so a
/// suite run under EGT_FORCE_SCALAR=1 stays forced after the scope).
struct ForceScalarGuard {
  explicit ForceScalarGuard(bool on) : was_(game::simd::force_scalar()) {
    game::simd::set_force_scalar(on);
  }
  ~ForceScalarGuard() { game::simd::set_force_scalar(was_); }
  bool was_;
};

TEST(PairRoute, ClassifiesEveryDispatchCase) {
  util::Xoshiro256 rng(1);
  const game::Strategy pure1{game::PureStrategy::random(1, rng)};
  const game::Strategy mixed1{game::MixedStrategy::random(1, rng)};

  SimConfig cfg = analytic_config(8, 1);
  PairEvaluator eval(cfg);
  EXPECT_EQ(eval.route(pure1, pure1), PairEvaluator::Route::PureExact);
  EXPECT_EQ(eval.route(pure1, mixed1), PairEvaluator::Route::Mem1Markov);
  EXPECT_EQ(eval.route(mixed1, mixed1), PairEvaluator::Route::Mem1Markov);

  // Execution noise kills the deterministic walker but not the chain.
  cfg.game.noise = 0.05;
  PairEvaluator noisy(cfg);
  EXPECT_EQ(noisy.route(pure1, pure1), PairEvaluator::Route::Mem1Markov);

  // Stochastic memory >= 2 has no closed form: stream play.
  SimConfig deep = analytic_config(8, 2);
  const game::Strategy mixed2{game::MixedStrategy::random(2, rng)};
  const game::Strategy pure2{game::PureStrategy::random(2, rng)};
  PairEvaluator deep_eval(deep);
  EXPECT_EQ(deep_eval.route(mixed2, mixed2),
            PairEvaluator::Route::SampledStream);
  EXPECT_EQ(deep_eval.route(pure2, pure2), PairEvaluator::Route::PureExact);

  // Sampled mode never has a strategy-pure pair.
  SimConfig sampled = analytic_config(8, 1);
  sampled.fitness_mode = FitnessMode::Sampled;
  PairEvaluator sampled_eval(sampled);
  EXPECT_EQ(sampled_eval.route(pure1, pure1),
            PairEvaluator::Route::SampledStream);

  // m-action specs bypass the 2x2 kernels entirely.
  SimConfig nway = analytic_config(8, 0);
  nway.memory = 0;
  nway.game = *game::find_game("rps");
  ASSERT_TRUE(game::spec::requires_spec_chain(nway.game));
  util::Xoshiro256 nrng(2);
  const game::Strategy rps{game::NWayStrategy::random(3, nrng)};
  PairEvaluator nway_eval(nway);
  EXPECT_EQ(nway_eval.route(rps, rps), PairEvaluator::Route::NWaySpec);
}

// The whole fitness tier — row batches, deduplicated class batches,
// batches of one — must agree with the active kernel to the cross-kernel
// tolerance when forced scalar, and bitwise with itself across dedup and
// thread-count settings (one kernel per process).
TEST(BatchFitness, ForcedScalarAgreesWithActiveKernelTo1em12) {
  const SimConfig cfg = analytic_config(24, 1);
  util::Xoshiro256 rng(55);
  const auto pop = pop::Population::random_mixed(cfg.ssets, 1, rng);

  std::vector<double> active, scalar;
  {
    BlockFitness block(cfg, 0, cfg.ssets);
    block.initialize(pop);
    active.assign(block.block().begin(), block.block().end());
  }
  {
    ForceScalarGuard guard(true);
    BlockFitness block(cfg, 0, cfg.ssets);
    block.initialize(pop);
    scalar.assign(block.block().begin(), block.block().end());
  }
  ASSERT_EQ(active.size(), scalar.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    const double tol = 1e-12 * std::max(1.0, std::fabs(scalar[i]));
    EXPECT_NEAR(active[i], scalar[i], tol) << "row " << i;
  }
}

TEST(BatchFitness, DedupAndRowBatchBitIdentical) {
  SimConfig brute = analytic_config(20, 1);
  SimConfig dedup = brute;
  dedup.dedup = true;
  util::Xoshiro256 rng(7);
  auto pop = pop::Population::random_mixed(brute.ssets, 1, rng);
  for (pop::SSetId i = 0; i < pop.size(); i += 2) {
    pop.set_strategy(i, pop.strategy(1));  // give dedup real classes
  }

  BlockFitness a(brute, 0, brute.ssets);
  BlockFitness b(dedup, 0, dedup.ssets);
  a.initialize(pop);
  b.initialize(pop);
  ASSERT_EQ(a.block().size(), b.block().size());
  for (std::size_t i = 0; i < a.block().size(); ++i) {
    EXPECT_EQ(a.block()[i], b.block()[i]) << "row " << i;
  }
  EXPECT_EQ(a.pairs_evaluated(), b.pairs_evaluated());
  EXPECT_LT(b.games_played(), a.games_played());
}

// Mixed memory-2 pairs have no closed form: the row batch must leave them
// on the per-pair stream path, and results must match the brute-force
// evaluator pair by pair.
TEST(BatchFitness, StochasticMemory2FallsBackToStreamPlay) {
  const SimConfig cfg = analytic_config(10, 2);
  util::Xoshiro256 rng(13);
  const auto pop = pop::Population::random_mixed(cfg.ssets, 2, rng);

  BlockFitness block(cfg, 0, cfg.ssets);
  block.initialize(pop);
  const PairEvaluator eval(cfg);
  for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
    double sum = 0.0;
    for (pop::SSetId j = 0; j < cfg.ssets; ++j) {
      if (j == i) continue;
      sum += eval.payoff(pop, i, j, 0);
    }
    const double scale = 1.0 / ((cfg.ssets - 1.0) * cfg.game.rounds);
    EXPECT_EQ(block.fitness(i), sum * scale) << "row " << i;
  }
}

// m-action populations route through the spec chain: flipping the kernel
// switch must not move a single bit.
TEST(BatchFitness, NWaySpecBypassUnaffectedByKernelSwitch) {
  SimConfig cfg = analytic_config(12, 0);
  cfg.memory = 0;
  cfg.game = *game::find_game("rps");
  util::Xoshiro256 rng(21);
  const auto pop = pop::Population::random_nway(cfg.ssets, 3, false, rng);

  std::vector<double> active, scalar;
  {
    BlockFitness block(cfg, 0, cfg.ssets);
    block.initialize(pop);
    active.assign(block.block().begin(), block.block().end());
  }
  {
    ForceScalarGuard guard(true);
    BlockFitness block(cfg, 0, cfg.ssets);
    block.initialize(pop);
    scalar.assign(block.block().begin(), block.block().end());
  }
  ASSERT_EQ(active.size(), scalar.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    EXPECT_EQ(active[i], scalar[i]) << "row " << i;
  }
}

// Pure populations at zero noise take the PureExact walker everywhere —
// also kernel-switch invariant (the walker has no SIMD variant).
TEST(BatchFitness, PureExactPathKernelSwitchInvariant) {
  const SimConfig cfg = analytic_config(16, 2);
  util::Xoshiro256 rng(31);
  const auto pop = pop::Population::random_pure(cfg.ssets, 2, rng);

  std::vector<double> active, scalar;
  {
    BlockFitness block(cfg, 0, cfg.ssets);
    block.initialize(pop);
    active.assign(block.block().begin(), block.block().end());
  }
  {
    ForceScalarGuard guard(true);
    BlockFitness block(cfg, 0, cfg.ssets);
    block.initialize(pop);
    scalar.assign(block.block().begin(), block.block().end());
  }
  for (std::size_t i = 0; i < active.size(); ++i) {
    EXPECT_EQ(active[i], scalar[i]) << "row " << i;
  }
}

// -- sampled lane kernel at the fitness tier ----------------------------------

SimConfig sampled_config(int memory, FitnessMode mode) {
  SimConfig cfg;
  cfg.ssets = 21;  // rows of 20 pairs: two lane groups plus a remainder
  cfg.memory = memory;
  cfg.seed = 777;
  cfg.game.noise = 0.05;
  cfg.fitness_mode = mode;
  return cfg;
}

pop::Population mixed_in_pure(const SimConfig& cfg, util::Xoshiro256& rng) {
  auto pop = pop::Population::random_pure(cfg.ssets, cfg.memory, rng);
  for (pop::SSetId i = 0; i < pop.size(); i += 3) {
    pop.set_strategy(i, game::MixedStrategy::random(cfg.memory, rng));
  }
  return pop;
}

/// One evaluation of every row under a configuration: fitness, matrix and
/// counters, gathered over `blocks` row blocks as parallel ranks own them.
struct Evaluated {
  std::vector<double> fitness;
  std::vector<double> matrix;
  std::uint64_t pairs = 0;
  std::uint64_t games = 0;
};

/// Sampled rows are re-played at `generation`; SampledFrozen blocks are
/// initialized and then refresh the row and column of each SSet in
/// `changes` (the new strategy already set in `after`).
Evaluated evaluate(const SimConfig& cfg, const pop::Population& before,
                   const pop::Population& after,
                   const std::vector<pop::SSetId>& changes, int blocks,
                   std::shared_ptr<const pop::InteractionGraph> graph) {
  Evaluated out;
  const pop::SSetId per = (cfg.ssets + blocks - 1) / blocks;
  for (pop::SSetId b = 0; b < cfg.ssets; b += per) {
    const pop::SSetId e = std::min<pop::SSetId>(cfg.ssets, b + per);
    BlockFitness block(cfg, b, e, graph);
    if (cfg.fitness_mode == FitnessMode::Sampled) {
      block.begin_generation(after, 5);
    } else {
      block.initialize(before);
      for (const pop::SSetId k : changes) block.strategy_changed(k, after, 9);
    }
    out.fitness.insert(out.fitness.end(), block.block().begin(),
                       block.block().end());
    const BlockFitness::State state = block.state();
    if (state.cols > 0) {
      out.matrix.insert(out.matrix.end(), state.values.begin(),
                        state.values.end());
    }
    out.pairs += block.pairs_evaluated();
    out.games += block.games_played();
  }
  return out;
}

void expect_identical(const Evaluated& want, const Evaluated& got,
                      const std::string& what) {
  ASSERT_EQ(want.fitness.size(), got.fitness.size()) << what;
  for (std::size_t i = 0; i < want.fitness.size(); ++i) {
    EXPECT_EQ(want.fitness[i], got.fitness[i]) << what << " row " << i;
  }
  EXPECT_EQ(want.matrix, got.matrix) << what;
  EXPECT_EQ(want.pairs, got.pairs) << what;
  EXPECT_EQ(want.games, got.games) << what;
}

// Every Sampled row path — serial, SSet-row tier, agent-tier chunks, split
// row blocks, structured neighbour lists — sends its stream pairs through
// the lane kernel; all must give identical fitness, matrices and counters,
// and agree bitwise with the per-pair brute force on a reference row.
TEST(SampledLaneFitness, EveryRowPathBitIdenticalWithEqualCounters) {
  for (const int memory : {1, 2, 6}) {
    for (const FitnessMode mode :
         {FitnessMode::Sampled, FitnessMode::SampledFrozen}) {
      const SimConfig cfg = sampled_config(memory, mode);
      util::Xoshiro256 rng(100 + memory);
      const pop::Population before = mixed_in_pure(cfg, rng);
      pop::Population after = before;
      const std::vector<pop::SSetId> changes{4, 13};
      for (const pop::SSetId k : changes) {
        after.set_strategy(k, game::PureStrategy::random(memory, rng));
      }
      const auto ring = std::make_shared<const pop::InteractionGraph>(
          pop::InteractionGraph::ring(cfg.ssets, 3));
      for (const auto& graph :
           {std::shared_ptr<const pop::InteractionGraph>{}, ring}) {
        const std::string tag = "memory " + std::to_string(memory) +
                                (mode == FitnessMode::Sampled ? " sampled"
                                                              : " frozen") +
                                (graph ? " ring" : " well-mixed");
        const Evaluated serial =
            evaluate(cfg, before, after, changes, 1, graph);
        SimConfig pooled = cfg;
        pooled.threads = 3;
        expect_identical(serial,
                         evaluate(pooled, before, after, changes, 1, graph),
                         tag + " thread pool");
        expect_identical(serial,
                         evaluate(cfg, before, after, changes, 3, graph),
                         tag + " three blocks");
        {
          ForceScalarGuard guard(true);
          expect_identical(serial,
                           evaluate(cfg, before, after, changes, 1, graph),
                           tag + " forced scalar");
        }
        if (mode == FitnessMode::Sampled && !graph) {
          // Row 0 against the per-pair oracle, in the row's sum order.
          const PairEvaluator eval(cfg);
          double sum = 0.0;
          for (pop::SSetId j = 1; j < cfg.ssets; ++j) {
            sum += eval.payoff(after, 0, j, 5);
          }
          EXPECT_EQ(serial.fitness[0],
                    sum / ((cfg.ssets - 1.0) * cfg.game.rounds))
              << tag;
        }
        if (mode == FitnessMode::SampledFrozen) {
          // The refreshed column holds the change generation's streams.
          const PairEvaluator eval(cfg);
          for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
            if (i == 13 || (graph && !graph->are_neighbors(i, 13))) continue;
            EXPECT_EQ(serial.matrix[i * cfg.ssets + 13],
                      eval.payoff(after, i, 13, 9))
                << tag << " row " << i;
          }
        }
      }
    }
  }
}

// PairEvaluator::payoffs is payoff() pair by pair, whatever the mix of
// routes in one call (Analytic memory-1 pure and mixed pairs; Analytic
// memory-2 stochastic pairs on streams).
TEST(SampledLaneFitness, BatchedPayoffsEqualPerPairPayoff) {
  for (const int memory : {1, 2}) {
    SimConfig cfg = analytic_config(15, memory);
    cfg.game.noise = 0.03;
    util::Xoshiro256 rng(9);
    const auto pop = mixed_in_pure(cfg, rng);
    const PairEvaluator eval(cfg);
    std::vector<PairEvaluator::Pair> pairs;
    for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
      for (pop::SSetId j = 0; j < cfg.ssets; ++j) {
        if (i != j) pairs.emplace_back(i, j);
      }
    }
    std::vector<double> got(pairs.size());
    eval.payoffs(pop, pairs, 3, got);
    for (std::size_t t = 0; t < pairs.size(); ++t) {
      EXPECT_EQ(got[t], eval.payoff(pop, pairs[t].first, pairs[t].second, 3))
          << "memory " << memory << " pair " << t;
    }
  }
}

}  // namespace
}  // namespace egt::core
