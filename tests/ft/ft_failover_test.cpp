// Nature Agent failover, tested against the same oracle as every other
// engine: the serial run. Killing the master (rank 0) — alone, together
// with a worker, or cascading into the promoted standby — must still
// reproduce the fault-free strategy table bit for bit, because the
// decision log replicates Nature's RNG trajectory ahead of every decision
// broadcast. Recovery recomputes every block bit for bit, so fitness and
// the merged "engine.*" counters are asserted too.
#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/generation.hpp"
#include "ft/ft_engine.hpp"
#include "obs/metrics.hpp"

namespace egt::ft {
namespace {

using core::Engine;
using core::FitnessMode;
using core::SimConfig;

SimConfig analytic_config() {
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

SimConfig sampled_config() {
  auto cfg = analytic_config();
  cfg.fitness_mode = FitnessMode::Sampled;
  cfg.ssets = 10;
  cfg.generations = 15;
  return cfg;
}

/// Failover tests wait out master-silence timeouts, so shrink them: the
/// per-generation compute here is microseconds, and a false-positive
/// eviction would show up as a counter mismatch anyway.
FtRunOptions fast_failover(FtRunOptions opt = {}) {
  opt.detect_timeout_ms = 150.0;
  opt.ping_timeout_ms = 60.0;
  opt.max_pings = 2;
  opt.master_silence_ms = 450.0;
  opt.election_window_ms = 80.0;
  return opt;
}

struct Reference {
  pop::Population population;
  obs::MetricsSnapshot metrics;
};

Reference serial_reference(const SimConfig& cfg) {
  obs::MetricsRegistry reg;
  Engine serial(cfg, &reg);
  serial.run_all();
  return {serial.population(), reg.snapshot()};
}

constexpr const char* kEngineCounters[] = {
    "engine.generations",   "engine.pc_events", "engine.adoptions",
    "engine.moran_events",  "engine.mutations", "engine.pairs_evaluated",
};

void expect_table_equal(const FtResult& ft, const Reference& ref) {
  ASSERT_EQ(ft.population.size(), ref.population.size());
  EXPECT_EQ(ft.population.table_hash(), ref.population.table_hash())
      << "strategy tables diverged";
  for (pop::SSetId i = 0; i < ref.population.size(); ++i) {
    ASSERT_TRUE(ft.population.strategy(i) == ref.population.strategy(i))
        << "strategy diverged at SSet " << i;
  }
}

void expect_fitness_equal(const FtResult& ft, const Reference& ref) {
  for (pop::SSetId i = 0; i < ref.population.size(); ++i) {
    ASSERT_DOUBLE_EQ(ft.population.fitness(i), ref.population.fitness(i))
        << "fitness diverged at SSet " << i;
  }
}

void expect_engine_counters_equal(const FtResult& ft, const Reference& ref) {
  for (const char* name : kEngineCounters) {
    EXPECT_EQ(ft.metrics.counter_value(name), ref.metrics.counter_value(name))
        << "counter " << name << " diverged";
  }
}

TEST(FtFailover, MasterKillFailsOverBitExact) {
  // Rank 0 dies at the top of generation 7; the standby restores Nature
  // from its newest decision-log record and finishes the run. Sampled
  // recompute is a pure function of (population, generation), so even
  // fitness is bit-identical.
  const auto cfg = sampled_config();
  const auto ref = serial_reference(cfg);
  auto opt = fast_failover();
  opt.plan.kill(0, 7);
  const auto ft = run_parallel_ft(cfg, 4, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 1);
  EXPECT_EQ(ft.failovers, 1);
  EXPECT_EQ(ft.metrics.counter_value("ft.failovers"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.elections"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.log.appends"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.log.records"), 1u);
  EXPECT_EQ(ft.generations, cfg.generations);
}

TEST(FtFailover, FrozenMasterKillRecomputesBitExact) {
  // The successor folds the dead master's range in at a generation
  // boundary, recomputing it from the strategy table and each SSet's
  // last-change generation as of the last applied decision: frozen
  // samples (SampledFrozen at memory one and two, Analytic's memory-two
  // fall-through) come back bit for bit, and so do all seven engine.*
  // counters (dedup off keeps games_played partition-independent).
  auto frozen = analytic_config();
  frozen.fitness_mode = FitnessMode::SampledFrozen;
  frozen.space = pop::StrategySpace::Mixed;
  frozen.game.noise = 0.02;
  frozen.dedup = false;
  auto frozen_m2 = frozen;
  frozen_m2.memory = 2;
  auto fall_through = frozen_m2;
  fall_through.fitness_mode = FitnessMode::Analytic;
  for (const SimConfig& cfg : {frozen, frozen_m2, fall_through}) {
    SCOPED_TRACE(cfg.summary());
    const auto ref = serial_reference(cfg);
    auto opt = fast_failover();
    opt.plan.kill(0, 12);
    const auto ft = run_parallel_ft(cfg, 4, opt);
    expect_table_equal(ft, ref);
    for (pop::SSetId i = 0; i < ref.population.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ft.population.fitness(i)),
                std::bit_cast<std::uint64_t>(ref.population.fitness(i)))
          << "fitness diverged at SSet " << i;
    }
    EXPECT_EQ(core::counters_from(ft.metrics),
              core::counters_from(ref.metrics))
        << "ft " << core::to_string(core::counters_from(ft.metrics))
        << "\nserial " << core::to_string(core::counters_from(ref.metrics));
    EXPECT_EQ(ft.failovers, 1);
    EXPECT_GE(ft.metrics.counter_value("ft.recovery.blocks_recomputed"), 1u);
  }
}

TEST(FtFailover, MasterKillAtGenerationZero) {
  // Rank 0 dies before planning anything: every decision log is empty, the
  // lowest surviving rank wins the election and runs the whole simulation
  // from scratch.
  const auto cfg = sampled_config();
  const auto ref = serial_reference(cfg);
  auto opt = fast_failover();
  opt.plan.kill(0, 0);
  const auto ft = run_parallel_ft(cfg, 3, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.failovers, 1);
  EXPECT_EQ(ft.generations, cfg.generations);
}

TEST(FtFailover, MasterAndWorkerKilledSameGeneration) {
  // Rank 0 dies at the top of generation 7 and rank 2's kill fires on the
  // promoted master's re-broadcast of that same generation's plan: the
  // successor must handle a worker death in its very first generation.
  const auto cfg = sampled_config();
  const auto ref = serial_reference(cfg);
  auto opt = fast_failover();
  opt.plan.kill(0, 7);
  opt.plan.kill(2, 7);
  const auto ft = run_parallel_ft(cfg, 4, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 2);
  EXPECT_EQ(ft.failovers, 1);
  EXPECT_GE(ft.metrics.counter_value("ft.recoveries"), 1u);
}

TEST(FtFailover, CascadingMasterThenStandbyKill) {
  // With two standbys the log survives a cascade: rank 0 dies, rank 1 is
  // promoted, then rank 1 dies too. Rank 2 — which kept receiving the log
  // from both masters — wins the second election and finishes the run.
  const auto cfg = sampled_config();
  const auto ref = serial_reference(cfg);
  auto opt = fast_failover();
  opt.standby_replicas = 2;
  opt.plan.kill(0, 5);
  opt.plan.kill(1, 9);
  const auto ft = run_parallel_ft(cfg, 4, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 2);
  EXPECT_EQ(ft.failovers, 2);
  EXPECT_EQ(ft.metrics.counter_value("ft.failovers"), 2u);
}

TEST(FtFailover, AbortsWhenEveryLogCopyIsLost) {
  // One standby, and both the master and that standby die at the same
  // generation boundary: the survivors' applied state is ahead of every
  // remaining log, so the run must abort loudly instead of silently
  // diverging from the fault-free trajectory.
  const auto cfg = sampled_config();
  auto opt = fast_failover();
  opt.standby_replicas = 1;
  opt.plan.kill(0, 7);
  opt.plan.kill(1, 7);
  EXPECT_THROW((void)run_parallel_ft(cfg, 4, opt), std::runtime_error);
}

}  // namespace
}  // namespace egt::ft
