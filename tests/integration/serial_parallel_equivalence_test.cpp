// The central correctness claim of the parallel design: for any rank count
// and any communication pattern, the parallel engine reproduces the serial
// reference trajectory bit for bit.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/parallel_engine.hpp"
#include "ft/ft_engine.hpp"
#include "simcheck/trace.hpp"

namespace egt::core {
namespace {

SimConfig base_config() {
  SimConfig cfg;
  cfg.ssets = 24;
  cfg.memory = 1;
  cfg.generations = 60;
  cfg.pc_rate = 0.4;
  cfg.mutation_rate = 0.2;
  cfg.seed = 2024;
  cfg.fitness_mode = FitnessMode::Analytic;
  return cfg;
}

/// Whole-run and per-generation equality of every transport of the shared
/// generation step against the serial engine (the local transport):
/// run_parallel (tree-bcast or replicated-Nature, per cfg.comm_pattern)
/// and a fault-free run_parallel_ft (ft-star) at the same rank count.
void expect_equal_outcome(const SimConfig& cfg, int nranks) {
  obs::MetricsRegistry serial_metrics;
  simcheck::TraceRecorder serial_trace, parallel_trace, ft_trace;
  Engine serial(cfg, &serial_metrics);
  serial.set_trace(&serial_trace);
  serial.run_all();
  ParallelRunOptions parallel_options;
  parallel_options.trace = &parallel_trace;
  const auto parallel = run_parallel(cfg, nranks, parallel_options);
  ft::FtRunOptions ft_options;
  ft_options.trace = &ft_trace;
  const auto ft = ft::run_parallel_ft(cfg, nranks, ft_options);

  // Per generation: decisions, Nature state and table hash (fitness_hash
  // only where both sides record it; the parallel recorders leave it 0).
  const auto want_trace = serial_trace.contiguous_points();
  ASSERT_EQ(want_trace.size(), cfg.generations);
  for (const auto* got : {&parallel_trace, &ft_trace}) {
    const auto div =
        simcheck::compare_traces(want_trace, got->contiguous_points());
    EXPECT_FALSE(div.has_value())
        << (got == &ft_trace ? "run_parallel_ft" : "run_parallel")
        << " trace diverges at generation " << div->generation << ": "
        << div->detail << ", nranks=" << nranks;
  }

  // Merged counters. games_played is partition-dependent under dedup (a
  // class spanning blocks is evaluated once per rank), as in simcheck.
  EngineCounters want = counters_from(serial_metrics.snapshot());
  for (const auto& [name, metrics] :
       {std::pair{"run_parallel", &parallel.metrics},
        std::pair{"run_parallel_ft", &ft.metrics}}) {
    EngineCounters got = counters_from(*metrics);
    if (cfg.dedup && cfg.fitness_mode == FitnessMode::Analytic && nranks > 1) {
      got.games_played = want.games_played;
    }
    EXPECT_EQ(to_string(got), to_string(want))
        << name << " counters, nranks=" << nranks;
  }

  // Final state (after the per-generation checks, which name the first
  // diverging generation).
  const pop::Population& want_pop = serial.population();
  for (const auto& [name, got] :
       {std::pair{"run_parallel", &parallel.population},
        std::pair{"run_parallel_ft", &ft.population}}) {
    ASSERT_EQ(got->size(), want_pop.size()) << name;
    EXPECT_EQ(got->table_hash(), want_pop.table_hash())
        << name << " strategy tables diverged at nranks=" << nranks;
    for (pop::SSetId i = 0; i < want_pop.size(); ++i) {
      ASSERT_DOUBLE_EQ(got->fitness(i), want_pop.fitness(i))
          << name << " fitness diverged at SSet " << i << ", nranks=" << nranks;
      ASSERT_TRUE(got->strategy(i) == want_pop.strategy(i))
          << name << " strategy diverged at SSet " << i
          << ", nranks=" << nranks;
    }
  }
}

class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, PaperBcastPatternMatchesSerial) {
  auto cfg = base_config();
  cfg.comm_pattern = CommPattern::PaperBcast;
  expect_equal_outcome(cfg, GetParam());
}

TEST_P(RankSweep, ReplicatedNaturePatternMatchesSerial) {
  auto cfg = base_config();
  cfg.comm_pattern = CommPattern::ReplicatedNature;
  expect_equal_outcome(cfg, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 24));

TEST(SerialParallel, MixedStrategiesMatchToo) {
  auto cfg = base_config();
  cfg.space = pop::StrategySpace::Mixed;
  cfg.game.noise = 0.05;
  cfg.generations = 40;
  expect_equal_outcome(cfg, 5);
}

TEST(SerialParallel, SampledModeMatches) {
  auto cfg = base_config();
  cfg.fitness_mode = FitnessMode::Sampled;
  cfg.ssets = 10;
  cfg.generations = 15;
  expect_equal_outcome(cfg, 3);
}

TEST(SerialParallel, SampledFrozenModeMatches) {
  auto cfg = base_config();
  cfg.fitness_mode = FitnessMode::SampledFrozen;
  cfg.generations = 30;
  expect_equal_outcome(cfg, 4);
}

TEST(SerialParallel, HigherMemoryMatches) {
  auto cfg = base_config();
  cfg.memory = 3;
  cfg.ssets = 12;
  cfg.generations = 20;
  expect_equal_outcome(cfg, 4);
}

TEST(SerialParallel, PaperGateMatches) {
  auto cfg = base_config();
  cfg.require_teacher_better = true;
  expect_equal_outcome(cfg, 6);
}

TEST(SerialParallel, ReplicatedNatureSendsFewerBroadcastBytes) {
  // The ablation's point: replaying Nature locally avoids shipping the
  // per-generation plan and the mutated strategy payloads — which at
  // memory-six are 512-byte broadcasts.
  auto cfg = base_config();
  cfg.memory = 6;
  cfg.ssets = 12;
  cfg.generations = 100;
  cfg.comm_pattern = CommPattern::PaperBcast;
  const auto paper = run_parallel(cfg, 6);
  cfg.comm_pattern = CommPattern::ReplicatedNature;
  const auto replicated = run_parallel(cfg, 6);
  EXPECT_EQ(paper.population.table_hash(), replicated.population.table_hash());
  EXPECT_LT(replicated.traffic.bytes, paper.traffic.bytes);
}

TEST(SerialParallel, AgentThreadTierComposesWithRankTier) {
  // Both of the paper's parallel levels at once: ranks own SSet blocks,
  // worker threads split each SSet's games. Still bit-identical.
  auto cfg = base_config();
  cfg.generations = 30;
  cfg.threads = 0;
  Engine serial(cfg);
  serial.run_all();
  cfg.threads = 2;
  const auto par = run_parallel(cfg, 3);
  EXPECT_EQ(par.population.table_hash(), serial.population().table_hash());
}

TEST(SerialParallel, MoranRuleMatchesOnBothPatterns) {
  auto cfg = base_config();
  cfg.update_rule = pop::UpdateRule::Moran;
  cfg.pc_rate = 0.5;
  cfg.generations = 80;
  cfg.comm_pattern = CommPattern::PaperBcast;
  expect_equal_outcome(cfg, 5);
  cfg.comm_pattern = CommPattern::ReplicatedNature;
  expect_equal_outcome(cfg, 7);
}

TEST(SerialParallel, MoranCostsMoreTrafficThanPairwiseComparison) {
  // The design argument for the paper's PC rule: Moran ships the whole
  // fitness vector per event, PC ships two doubles.
  auto cfg = base_config();
  cfg.generations = 200;
  cfg.mutation_rate = 0.0;
  cfg.update_rule = pop::UpdateRule::PairwiseComparison;
  const auto pc = run_parallel(cfg, 6);
  cfg.update_rule = pop::UpdateRule::Moran;
  const auto moran = run_parallel(cfg, 6);
  EXPECT_GT(moran.traffic.bytes, pc.traffic.bytes);
}

TEST(SerialParallel, FaultTolerantEngineMatchesSerialThroughARankFailure) {
  // The ft claim, end to end: losing a worker mid-run (recovered from its
  // last block checkpoint) leaves the trajectory indistinguishable from
  // the serial reference.
  const auto cfg = base_config();
  Engine serial(cfg);
  serial.run_all();

  ft::FtRunOptions opt;
  opt.plan.kill(2, 30);
  opt.checkpoint_every = 10;  // 30 % 10 == 0: recovery hits the fast path
  const auto ft = ft::run_parallel_ft(cfg, 4, opt);

  EXPECT_EQ(ft.ranks_lost, 1);
  EXPECT_GE(ft.metrics.counter_value("ft.recoveries"), 1u);
  ASSERT_EQ(ft.population.size(), serial.population().size());
  EXPECT_EQ(ft.population.table_hash(), serial.population().table_hash());
  for (pop::SSetId i = 0; i < serial.population().size(); ++i) {
    ASSERT_DOUBLE_EQ(ft.population.fitness(i), serial.population().fitness(i))
        << "fitness diverged at SSet " << i;
    ASSERT_TRUE(ft.population.strategy(i) == serial.population().strategy(i))
        << "strategy diverged at SSet " << i;
  }
}

TEST(SerialParallel, SsetThreadTierMatchesSerialOnAllEngines) {
  // The thread pool must be invisible to the trajectory on every engine:
  // serial reference (threads off) vs serial, rank-parallel and
  // fault-tolerant runs with --threads on, all bit-identical.
  auto cfg = base_config();
  Engine reference(cfg);
  reference.run_all();

  cfg.threads = 3;
  Engine serial(cfg);
  serial.run_all();
  EXPECT_EQ(serial.population().table_hash(),
            reference.population().table_hash());

  const auto par = run_parallel(cfg, 4);
  EXPECT_EQ(par.population.table_hash(), reference.population().table_hash());

  ft::FtRunOptions opt;
  opt.plan.kill(2, 30);
  opt.checkpoint_every = 10;
  const auto ft = ft::run_parallel_ft(cfg, 4, opt);
  EXPECT_EQ(ft.ranks_lost, 1);
  EXPECT_EQ(ft.population.table_hash(), reference.population().table_hash());
  for (pop::SSetId i = 0; i < reference.population().size(); ++i) {
    ASSERT_DOUBLE_EQ(ft.population.fitness(i),
                     reference.population().fitness(i))
        << "fitness diverged at SSet " << i;
  }
}

TEST(SerialParallel, DedupOffMatchesDedupOn) {
  // Dedup must be a pure evaluation-count optimization: turning it off
  // changes games_played and nothing else.
  auto cfg = base_config();
  Engine with(cfg);
  with.run_all();
  cfg.dedup = false;
  Engine without(cfg);
  without.run_all();
  EXPECT_EQ(with.population().table_hash(), without.population().table_hash());
  EXPECT_EQ(with.pairs_evaluated(), without.pairs_evaluated());
  EXPECT_LE(with.games_played(), without.games_played());
  const auto par = run_parallel(cfg, 3);  // dedup off in parallel too
  EXPECT_EQ(par.population.table_hash(), with.population().table_hash());
}

TEST(SerialParallel, RejectsMoreRanksThanSSets) {
  auto cfg = base_config();
  cfg.ssets = 4;
  EXPECT_THROW((void)run_parallel(cfg, 5), std::invalid_argument);
}

}  // namespace
}  // namespace egt::core
