// The fault-tolerance claim, tested the same way the parallel engine's
// equivalence is: a run that loses ranks mid-flight must reproduce the
// fault-free (serial) trajectory — same strategy table, same fitness where
// the recovery path is bit-exact, same merged "engine.*" counters for
// kill-only plans — while the "ft.*" metrics record what the recovery
// machinery actually did.
#include <gtest/gtest.h>

#include <bit>

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/generation.hpp"
#include "core/trace.hpp"
#include "ft/ft_engine.hpp"
#include "ft/ownership.hpp"
#include "ft/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/json.hpp"

namespace egt::ft {
namespace {

using core::Engine;
using core::FitnessMode;
using core::SimConfig;

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

SimConfig sampled_config() {
  auto cfg = base_config();
  cfg.fitness_mode = FitnessMode::Sampled;
  cfg.ssets = 10;
  cfg.generations = 15;
  return cfg;
}

/// Serial reference outcome: final population + "engine.*" counters.
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

/// Bitwise: row sums are exact, so every recovery path reproduces the
/// reference's bits.
void expect_fitness_equal(const FtResult& ft, const Reference& ref) {
  for (pop::SSetId i = 0; i < ref.population.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ft.population.fitness(i)),
              std::bit_cast<std::uint64_t>(ref.population.fitness(i)))
        << "fitness diverged at SSet " << i;
  }
}

void expect_engine_counters_equal(const FtResult& ft, const Reference& ref) {
  for (const char* name : kEngineCounters) {
    EXPECT_EQ(ft.metrics.counter_value(name), ref.metrics.counter_value(name))
        << "counter " << name << " diverged";
  }
}

TEST(FtEngine, FaultFreeMatchesSerial) {
  const auto cfg = base_config();
  const auto ref = serial_reference(cfg);
  const auto ft = run_parallel_ft(cfg, 4);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 0);
  EXPECT_EQ(ft.generations, cfg.generations);
  EXPECT_EQ(ft.metrics.counter_value("ft.recoveries"), 0u);
}

TEST(FtEngine, FaultFreeSampledMatchesSerial) {
  const auto cfg = sampled_config();
  const auto ref = serial_reference(cfg);
  const auto ft = run_parallel_ft(cfg, 3);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
}

TEST(FtEngine, KillInSampledModeRecomputesBitExact) {
  // Sampled fitness is recomputed from (population, generation) every
  // generation anyway, so recovery-by-recompute is bit-exact without any
  // checkpoint at all.
  const auto cfg = sampled_config();
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.plan.kill(1, 7);
  const auto ft = run_parallel_ft(cfg, 3, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 1);
  EXPECT_EQ(ft.metrics.counter_value("ft.recoveries"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.recovery.blocks_recomputed"), 1u);
}

/// base_config with mixed memory-one strategies under 2% noise: every
/// pair still has a closed form (the memory-one Markov chain).
SimConfig mixed_noisy_config() {
  auto cfg = base_config();
  cfg.space = pop::StrategySpace::Mixed;
  cfg.game.noise = 0.02;
  return cfg;
}

TEST(FtEngine, KillWithoutCheckpointPreservesTrajectory) {
  // Analytic recovery recomputes the block from the replicated strategy
  // table. Row sums are exact, so the
  // recompute's summation order does not matter: table and fitness match
  // the reference bit for bit.
  for (const SimConfig& cfg : {base_config(), mixed_noisy_config()}) {
    const auto ref = serial_reference(cfg);
    FtRunOptions opt;
    opt.plan.kill(3, 20);
    const auto ft = run_parallel_ft(cfg, 5, opt);
    expect_table_equal(ft, ref);
    expect_fitness_equal(ft, ref);
    expect_engine_counters_equal(ft, ref);
    EXPECT_EQ(ft.metrics.counter_value("ft.recoveries"), 1u);
    EXPECT_GE(ft.metrics.counter_value("ft.recovery.blocks_recomputed"), 1u);
  }
}

TEST(FtEngine, TwoSimultaneousKillsAreRecoveredNested) {
  // Both workers die at the same generation: the second death is
  // discovered *during* the first recovery's RECONFIG round and must be
  // handled recursively.
  const auto cfg = sampled_config();
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.plan.kill(1, 8).kill(3, 8);
  const auto ft = run_parallel_ft(cfg, 5, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 2);
  EXPECT_EQ(ft.metrics.counter_value("ft.recoveries"), 2u);
}

TEST(FtEngine, MoranRuleSurvivesAKill) {
  auto cfg = base_config();
  cfg.update_rule = pop::UpdateRule::Moran;
  cfg.pc_rate = 0.5;
  cfg.generations = 40;
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.plan.kill(1, 10);
  const auto ft = run_parallel_ft(cfg, 4, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.metrics.counter_value("ft.recoveries"), 1u);
}

TEST(FtEngine, DroppedFitnessReplyIsResentAfterProbe) {
  // The master misses a fitness return, suspects the worker, probes it,
  // finds it alive (false alarm) and resends the request. Nobody dies and
  // the trajectory is untouched.
  const auto cfg = base_config();
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.plan.drop({kAny, 0, tag::kFit, /*skip=*/0, /*count=*/1, 0});
  opt.detect_timeout_ms = 80.0;
  opt.ping_timeout_ms = 40.0;
  const auto ft = run_parallel_ft(cfg, 3, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 0);
  EXPECT_EQ(ft.metrics.counter_value("ft.faults.messages_dropped"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.suspected_ranks"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.false_alarms"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.resends"), 1u);
}

TEST(FtEngine, DroppedDecisionIsHealed) {
  // A lost decision broadcast does not stall anyone: the worker catches up
  // from the decision restated in the next plan and the replicas converge
  // again.
  const auto cfg = base_config();
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.plan.drop({0, kAny, tag::kDecide, /*skip=*/0, /*count=*/1, 0});
  const auto ft = run_parallel_ft(cfg, 3, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 0);
  EXPECT_GE(ft.metrics.counter_value("ft.heals"), 1u);
}

TEST(FtEngine, DelayedAckIsNotAFailure) {
  const auto cfg = base_config();
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.plan.delay({kAny, 0, tag::kPlanAck, /*skip=*/3, /*count=*/1, 30});
  const auto ft = run_parallel_ft(cfg, 3, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 0);
  EXPECT_EQ(ft.metrics.counter_value("ft.failures_detected"), 0u);
  EXPECT_EQ(ft.metrics.counter_value("ft.faults.messages_delayed"), 1u);
}

TEST(FtEngine, FalsePositiveEvictionPreservesTrajectory) {
  // A healthy worker whose ack AND probe replies are all eaten by the
  // network gets evicted. That wastes work (documented pairs over-count)
  // but must not bend the trajectory: the master recovers the rank's
  // blocks as if it had died.
  const auto cfg = base_config();
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.plan.drop({2, 0, tag::kPlanAck, /*skip=*/5, /*count=*/1, 0});
  opt.plan.drop({2, 0, tag::kPong, /*skip=*/0, /*count=*/8, 0});
  opt.detect_timeout_ms = 60.0;
  opt.ping_timeout_ms = 30.0;
  opt.max_pings = 2;
  const auto ft = run_parallel_ft(cfg, 4, opt);
  expect_table_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 1);
  EXPECT_EQ(ft.metrics.counter_value("ft.failures_detected"), 1u);
  EXPECT_EQ(ft.metrics.counter_value("ft.faults.kills"), 0u)
      << "nobody actually died";
  for (const char* name :
       {"engine.generations", "engine.pc_events", "engine.adoptions",
        "engine.moran_events", "engine.mutations"}) {
    EXPECT_EQ(ft.metrics.counter_value(name), ref.metrics.counter_value(name))
        << "counter " << name << " diverged";
  }
}

// -- the master's overlapped generation --------------------------------------
//
// The master sends PLAN before it folds the previous generation's strategy
// changes into its own blocks and plays its own game, so its blocks lag the
// replica between generations. These pin the fault paths that read them
// (a death during the PLAN round, the master's own kill) and the
// protocol's message count.

/// Collects the per-generation trace points of a run.
struct PointLog : core::TraceSink {
  std::vector<core::TracePoint> points;
  void on_point(const core::TracePoint& p) override { points.push_back(p); }
};

std::vector<core::TracePoint> serial_points(const SimConfig& cfg) {
  PointLog log;
  Engine serial(cfg);
  serial.set_trace(&log);
  serial.run_all();
  return log.points;
}

/// The first generation g >= 1 right after one (g - 1) that `hit` accepts.
template <class Pred>
std::optional<std::uint64_t> generation_after(
    const std::vector<core::TracePoint>& points, Pred&& hit) {
  for (const core::TracePoint& p : points) {
    if (hit(p) && p.generation + 1 < points.size()) return p.generation + 1;
  }
  return std::nullopt;
}

/// All seven engine.* counters, games_played included: without dedup
/// every pair is one game on every partition.
void expect_all_engine_counters_equal(const FtResult& ft, const Reference& ref) {
  EXPECT_EQ(core::counters_from(ft.metrics), core::counters_from(ref.metrics))
      << "ft " << core::to_string(core::counters_from(ft.metrics))
      << "\nserial " << core::to_string(core::counters_from(ref.metrics));
}

TEST(FtEngine, WorkerKillAfterMasterRowChangeIsBitExact) {
  auto cfg = base_config();
  cfg.dedup = false;
  const OwnershipTable table = OwnershipTable::initial(cfg.ssets, 4);
  const auto master_owned = [&](std::uint32_t k) {
    return table.owner_of(k) == 0;
  };
  const auto gen =
      generation_after(serial_points(cfg), [&](const core::TracePoint& p) {
        return (p.pc && p.adopted && master_owned(p.learner)) ||
               (p.mutated && master_owned(p.mutation_target));
      });
  ASSERT_TRUE(gen.has_value()) << "no change to a master-owned SSet";
  // End right after the recovery, before a later change can repair a
  // stale matrix column.
  cfg.generations = *gen + 2;
  const auto ref = serial_reference(cfg);
  // The worker dies on this generation's PLAN, so the master adopts part
  // of its range mid-generation, right after folding generation gen - 1,
  // and recomputes it.
  FtRunOptions opt;
  opt.plan.kill(2, *gen);
  const auto ft = run_parallel_ft(cfg, 4, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_all_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 1);
  EXPECT_GE(ft.metrics.counter_value("ft.recovery.blocks_recomputed"), 1u);
}

TEST(FtEngine, MasterKillAfterMutationCountsTheDeadMastersFold) {
  auto cfg = base_config();
  cfg.dedup = false;
  const auto gen = generation_after(
      serial_points(cfg), [](const core::TracePoint& p) { return p.mutated; });
  ASSERT_TRUE(gen.has_value()) << "no mutation generation";
  cfg.generations = *gen + 2;  // as above: no later repair of a stale block
  const auto ref = serial_reference(cfg);
  // The master dies at the top of `gen` with generation gen - 1's changes
  // still unfolded: it must fold (and count) them before it goes, or the
  // merged engine.pairs_evaluated falls short of the serial run. The
  // successor recomputes the dead master's range bit for bit.
  FtRunOptions opt;
  opt.plan.kill(0, *gen);
  opt.standby_replicas = 1;
  opt.detect_timeout_ms = 150.0;
  opt.ping_timeout_ms = 60.0;
  opt.max_pings = 2;
  opt.master_silence_ms = 450.0;
  opt.election_window_ms = 80.0;
  const auto ft = run_parallel_ft(cfg, 4, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_all_engine_counters_equal(ft, ref);
  EXPECT_GE(ft.metrics.counter_value("ft.recovery.blocks_recomputed"), 1u);
  EXPECT_EQ(ft.failovers, 1);
  EXPECT_EQ(ft.metrics.counter_value("ft.faults.kills"), 1u);
}

// A kill whose range is split between two adopters, one of which has
// already folded a change of the kill generation: that adopter recomputes
// its rows and replays the generation's changes on them.
// The replay is the dead rank's own generation work and counts to
// engine.*, so the counters match the fault-free run on the same ranks,
// games_played included, and the serial run's pairs (they were one and
// two pairs short). Configurations pinned from simcheck fuzz seeds 77 and
// 323.
void expect_aligned_kill_counts_like_fault_free(const SimConfig& cfg,
                                                int rank, std::uint64_t gen) {
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.detect_timeout_ms = 150.0;
  opt.ping_timeout_ms = 60.0;
  opt.max_pings = 2;
  const auto clean = run_parallel_ft(cfg, 4, opt);
  opt.plan.kill(rank, gen);
  const auto ft = run_parallel_ft(cfg, 4, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(core::counters_from(ft.metrics),
            core::counters_from(clean.metrics))
      << "faulty " << core::to_string(core::counters_from(ft.metrics))
      << "\nfault-free " << core::to_string(core::counters_from(clean.metrics));
  EXPECT_EQ(ft.ranks_lost, 1);
  EXPECT_GE(ft.metrics.counter_value("ft.recovery.blocks_recomputed"), 1u);
}

TEST(FtEngine, AlignedKillReplayCountsAsEngineWorkMixedDedup) {
  SimConfig cfg;
  cfg.memory = 1;
  cfg.ssets = 10;
  cfg.generations = 48;
  cfg.game.payoff = {3.0, 2.0, 4.0, 0.0};
  cfg.game.display_name = "snowdrift";
  cfg.game.rounds = 16;
  cfg.pc_rate = 0.46621106747181834;
  cfg.mutation_rate = 0.38001755499280504;
  cfg.beta = 0.91415356447778295;
  cfg.require_teacher_better = true;
  cfg.space = pop::StrategySpace::Mixed;
  cfg.mutation_sigma = 0.15536949780205406;
  cfg.fitness_mode = FitnessMode::Analytic;
  cfg.fitness_scale = core::FitnessScale::Total;
  cfg.seed = 1003702849;
  cfg.dedup = true;
  expect_aligned_kill_counts_like_fault_free(cfg, 2, 44);
}

TEST(FtEngine, AlignedKillReplayCountsAsEngineWorkPureMemoryThree) {
  SimConfig cfg;
  cfg.memory = 3;
  cfg.ssets = 18;
  cfg.generations = 44;
  cfg.game.payoff = {3.0, 0.0, 4.0, 1.0};
  cfg.game.rounds = 32;
  cfg.pc_rate = 0.2693522534981772;
  cfg.mutation_rate = 0.2794619323468576;
  cfg.beta = 1.5007195302583947;
  cfg.space = pop::StrategySpace::Pure;
  cfg.mutation_sigma = 0.07734174441851781;
  cfg.fitness_mode = FitnessMode::Analytic;
  cfg.fitness_scale = core::FitnessScale::Total;
  cfg.seed = 2157268499;
  cfg.dedup = false;
  expect_aligned_kill_counts_like_fault_free(cfg, 3, 40);
}

// -- frozen samples --------------------------------------------------------
//
// SampledFrozen samples, and Analytic's frozen fall-through for stochastic
// memory >= 2 pairs, were last played in the generation of the later of
// their two SSets' last changes. Every rank applies every change with its
// generation, so an adopter recomputes them bit for bit with no checkpoint.

/// Mixed strategies under 2% noise, so every frozen sample depends on its
/// stream key; dedup off, so games_played is partition-independent.
std::vector<SimConfig> frozen_configs() {
  auto frozen = mixed_noisy_config();
  frozen.fitness_mode = FitnessMode::SampledFrozen;
  frozen.dedup = false;
  auto frozen_m2 = frozen;
  frozen_m2.memory = 2;
  auto fall_through = mixed_noisy_config();
  fall_through.memory = 2;
  fall_through.dedup = false;
  return {frozen, frozen_m2, fall_through};
}

TEST(FtEngine, RecomputableConfigsWriteNoBlockCheckpoints) {
  // Every config recomputes, so checkpoint_every is ignored and no
  // checkpoint instrument exists; a kill off any former checkpoint
  // generation ends bit-exact in table, fitness and all seven engine.*
  // counters, frozen samples included.
  auto analytic = base_config();
  analytic.dedup = false;  // games_played is then partition-independent
  auto mixed = mixed_noisy_config();
  mixed.dedup = false;
  std::vector<SimConfig> configs = {sampled_config(), analytic, mixed};
  for (const SimConfig& cfg : frozen_configs()) configs.push_back(cfg);
  for (const SimConfig& cfg : configs) {
    SCOPED_TRACE(cfg.summary());
    const auto ref = serial_reference(cfg);
    FtRunOptions opt;
    opt.checkpoint_every = 4;
    opt.plan.kill(2, 10);
    const auto ft = run_parallel_ft(cfg, 4, opt);
    expect_table_equal(ft, ref);
    expect_fitness_equal(ft, ref);
    expect_all_engine_counters_equal(ft, ref);
    EXPECT_EQ(ft.metrics.find_counter("ft.checkpoint.writes"), nullptr);
    EXPECT_EQ(ft.metrics.find_histogram("phase.ft_checkpoint"), nullptr);
    EXPECT_GE(ft.metrics.counter_value("ft.recovery.blocks_recomputed"), 1u);
  }
}

TEST(FtEngine, FrozenWorkerKillRecomputesBitExact) {
  // The worker dies on the PLAN of a generation right after a change, late
  // enough that most SSets have changed, so the master and the surviving
  // workers adopt its range mid-generation from the top-of-generation
  // table and births that change moved. The run ends two generations
  // later, before further changes can replay the adopted entries.
  for (SimConfig cfg : frozen_configs()) {
    SCOPED_TRACE(cfg.summary());
    const auto gen =
        generation_after(serial_points(cfg), [](const core::TracePoint& p) {
          return p.generation >= 40 && (p.mutated || (p.pc && p.adopted));
        });
    ASSERT_TRUE(gen.has_value()) << "no late strategy change";
    cfg.generations = *gen + 2;
    const auto ref = serial_reference(cfg);
    FtRunOptions opt;
    opt.plan.kill(2, *gen);
    const auto ft = run_parallel_ft(cfg, 4, opt);
    expect_table_equal(ft, ref);
    expect_fitness_equal(ft, ref);
    expect_all_engine_counters_equal(ft, ref);
    EXPECT_EQ(ft.ranks_lost, 1);
    EXPECT_GE(ft.metrics.counter_value("ft.recovery.blocks_recomputed"), 1u);
  }
}

TEST(FtEngine, FaultFreeMessageCountIsTheProtocols) {
  // No message added or removed: every one is accounted for by the
  // protocol, given the generation's plan.
  const auto cfg = base_config();
  constexpr int kRanks = 4;
  constexpr std::uint64_t kWorkers = kRanks - 1;
  PointLog log;
  FtRunOptions opt;
  opt.trace = &log;
  const auto ft = run_parallel_ft(cfg, kRanks, opt);
  ASSERT_EQ(log.points.size(), cfg.generations);
  const OwnershipTable table = OwnershipTable::initial(cfg.ssets, kRanks);
  const auto standbys = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(opt.standby_replicas), kWorkers);
  std::uint64_t want = 0;
  for (const core::TracePoint& p : log.points) {
    want += 2 * kWorkers;   // PLAN + PLAN_ACK
    want += 2 * standbys;   // LOG_APPEND + LOG_ACK
    if (p.pc) {
      for (const std::uint32_t k : {p.teacher, p.learner}) {
        if (table.owner_of(k) != 0) want += 2;  // REQ_FIT + FIT
      }
      want += kWorkers;  // DECIDE
    }
  }
  want += 3 * kWorkers;  // REQ_BLOCKS + BLOCKS + BYE
  EXPECT_EQ(ft.traffic.messages, want);
  EXPECT_EQ(ft.metrics.counter_value("ft.heals"), 0u);
  EXPECT_EQ(ft.metrics.counter_value("ft.resends"), 0u);
  EXPECT_EQ(ft.metrics.counter_value("ft.false_alarms"), 0u);
}

TEST(FtEngine, FtCountersArePreRegistered) {
  // ft.* must appear in every manifest — including the fault-free ones —
  // so dashboards see explicit zeros rather than missing series.
  const auto ft = run_parallel_ft(base_config(), 2);
  for (const char* name :
       {"ft.recoveries", "ft.failures_detected", "ft.suspected_ranks",
        "ft.false_alarms", "ft.resends", "ft.heals", "ft.faults.kills",
        "ft.recovery.blocks_recomputed",
        "ft.recovery.pairs_evaluated", "ft.rows_shipped"}) {
    EXPECT_NE(ft.metrics.find_counter(name), nullptr)
        << name << " missing from merged metrics";
  }
}

// -- shipped teacher rows ------------------------------------------------------
//
// An adoption whose teacher and learner live on different ranks carries the
// teacher's payoff row on the teacher's FIT and the learner owner's DECIDE,
// so the learner's row is copied instead of replayed: fitness and the
// trajectory stay the serial engine's, only games_played drops. A lost
// carrier falls back to the rebuild.

/// Analytic mixed memory-one with dedup and no mutation: every pair is
/// strategy-pure and no change opens a new class, so an adoption costs at
/// most two games — (teacher, learner) on the teacher's owner when no
/// third member of the class mirrors it, and (learner, teacher) likewise.
SimConfig mixed_dedup_config() {
  SimConfig cfg;
  cfg.ssets = 64;
  cfg.memory = 1;
  cfg.generations = 150;
  cfg.pc_rate = 1.0;
  cfg.mutation_rate = 0.0;
  cfg.space = pop::StrategySpace::Mixed;
  cfg.game.noise = 0.02;
  cfg.seed = 11;
  cfg.fitness_mode = FitnessMode::Analytic;
  cfg.dedup = true;
  return cfg;
}

bool remote_adoption(const core::TracePoint& p, const OwnershipTable& table) {
  return p.pc && p.adopted &&
         table.owner_of(p.teacher) != table.owner_of(p.learner);
}

void expect_fitness_bits_equal(const FtResult& ft, const Reference& ref) {
  for (pop::SSetId i = 0; i < ref.population.size(); ++i) {
    ASSERT_EQ(ft.population.fitness(i), ref.population.fitness(i))
        << "fitness diverged at SSet " << i;
  }
}

TEST(FtEngine, RemoteAdoptionCopiesTheShippedTeacherRow) {
  const auto cfg = mixed_dedup_config();
  constexpr int kRanks = 4;
  const auto ref = serial_reference(cfg);
  PointLog log;
  FtRunOptions opt;
  opt.trace = &log;
  const auto ft = run_parallel_ft(cfg, kRanks, opt);
  expect_table_equal(ft, ref);
  expect_fitness_bits_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);

  const OwnershipTable table = OwnershipTable::initial(cfg.ssets, kRanks);
  const auto remote = static_cast<std::uint64_t>(
      std::ranges::count_if(log.points, [&](const core::TracePoint& p) {
        return remote_adoption(p, table);
      }));
  ASSERT_GT(remote, 0u) << "no adoption crossed ranks";
  EXPECT_EQ(ft.metrics.counter_value("ft.rows_shipped"), remote);

  auto init = cfg;
  init.generations = 0;
  const std::uint64_t init_games =
      run_parallel_ft(init, kRanks).metrics.counter_value("engine.games_played");
  const std::uint64_t adoptions = ft.metrics.counter_value("engine.adoptions");
  EXPECT_LE(ft.metrics.counter_value("engine.games_played") - init_games,
            2 * adoptions)
      << "a remote adoption replayed the learner's row";
}

TEST(FtEngine, LostRowCarrierFallsBackToTheRebuild) {
  auto cfg = mixed_dedup_config();
  constexpr int kRanks = 4;
  const OwnershipTable table = OwnershipTable::initial(cfg.ssets, kRanks);
  const auto points = serial_points(cfg);
  // A remote adoption between two workers, so both the teacher's FIT and
  // the learner owner's DECIDE cross the network.
  const auto hit = std::ranges::find_if(points, [&](const core::TracePoint& p) {
    return p.generation >= 1 && p.generation + 2 < points.size() &&
           remote_adoption(p, table) && table.owner_of(p.teacher) != 0 &&
           table.owner_of(p.learner) != 0;
  });
  ASSERT_NE(hit, points.end()) << "no worker-to-worker adoption";
  const std::uint64_t gen = hit->generation;
  const int teacher_owner = table.owner_of(hit->teacher);
  const int learner_owner = table.owner_of(hit->learner);
  // The fault-free sends before `gen`: one FIT per remote PC fitness, one
  // DECIDE per PC generation to every worker.
  std::uint64_t fits = 0, decides = 0;
  for (const core::TracePoint& p : points) {
    if (p.generation >= gen || !p.pc) continue;
    ++decides;
    for (const std::uint32_t k : {p.teacher, p.learner}) {
      if (table.owner_of(k) == teacher_owner) ++fits;
    }
  }
  const auto ref = serial_reference(cfg);
  const std::uint64_t remote = static_cast<std::uint64_t>(
      std::ranges::count_if(points, [&](const core::TracePoint& p) {
        return remote_adoption(p, table);
      }));

  {
    SCOPED_TRACE("teacher's FIT dropped: the resent FIT carries the row");
    FtRunOptions opt;
    opt.plan.drop({teacher_owner, 0, tag::kFit, fits, 1, 0});
    opt.detect_timeout_ms = 80.0;
    opt.ping_timeout_ms = 40.0;
    const auto ft = run_parallel_ft(cfg, kRanks, opt);
    expect_table_equal(ft, ref);
    expect_fitness_bits_equal(ft, ref);
    expect_engine_counters_equal(ft, ref);
    EXPECT_EQ(ft.metrics.counter_value("ft.faults.messages_dropped"), 1u);
    EXPECT_GE(ft.metrics.counter_value("ft.resends"), 1u);
    EXPECT_EQ(ft.metrics.counter_value("ft.rows_shipped"), remote);
  }
  {
    SCOPED_TRACE("learner owner's DECIDE dropped: the PLAN heal rebuilds");
    FtRunOptions opt;
    opt.plan.drop({0, learner_owner, tag::kDecide, decides, 1, 0});
    const auto ft = run_parallel_ft(cfg, kRanks, opt);
    expect_table_equal(ft, ref);
    expect_fitness_bits_equal(ft, ref);
    expect_engine_counters_equal(ft, ref);
    EXPECT_EQ(ft.metrics.counter_value("ft.faults.messages_dropped"), 1u);
    EXPECT_GE(ft.metrics.counter_value("ft.heals"), 1u);
    EXPECT_EQ(ft.metrics.counter_value("ft.rows_shipped"), remote - 1);
  }
}

TEST(FtEngine, EveryGameIsChargedToAPhaseSpan) {
  // game_play and apply_update spans carry the games they paid for, so a
  // trace shows which change replayed a row: together they account for
  // every game of a fault-free run.
  const auto cfg = mixed_dedup_config();
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  const auto ft = run_parallel_ft(cfg, 4);
  tracer.stop();
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tracer.clear();
  const util::JsonValue doc = util::JsonValue::parse(os.str());
  ASSERT_EQ(doc.at("otherData").at("dropped_events").as_u64(), 0u);
  std::uint64_t games = 0;
  std::uint64_t apply_spans_with_games = 0;
  for (const auto& e : doc.at("traceEvents").items()) {
    if (e.at("ph").as_string() != "X") continue;
    const std::string name = e.at("name").as_string();
    if (name != obs::phase::kGamePlay && name != obs::phase::kApplyUpdate) {
      continue;
    }
    const util::JsonValue* args = e.find("args");
    ASSERT_NE(args, nullptr) << name << " span without a games arg";
    games += args->at("games").as_u64();
    if (name == obs::phase::kApplyUpdate) ++apply_spans_with_games;
  }
  EXPECT_GT(apply_spans_with_games, 0u);
  EXPECT_EQ(games, ft.metrics.counter_value("engine.games_played"));
}

TEST(FtEngine, SingleRankRunWorks) {
  // Degenerate deployment: the master owns everything and there is nobody
  // to lose. Still must match the serial engine.
  const auto cfg = sampled_config();
  const auto ref = serial_reference(cfg);
  const auto ft = run_parallel_ft(cfg, 1);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
}

TEST(FtEngine, MergesIntoCallerRegistry) {
  obs::MetricsRegistry reg;
  FtRunOptions opt;
  opt.metrics = &reg;
  (void)run_parallel_ft(sampled_config(), 3, opt);
  EXPECT_GT(reg.snapshot().counter_value("engine.generations"), 0u);
}

TEST(FtEngine, RejectsInexecutablePlansAndOptions) {
  const auto cfg = sampled_config();
  {
    // Killing the Nature Agent is only recoverable with a warm standby
    // holding the decision log.
    FtRunOptions opt;
    opt.standby_replicas = 0;
    opt.plan.kill(0, 3);
    EXPECT_THROW((void)run_parallel_ft(cfg, 3, opt), std::invalid_argument);
  }
  {
    FtRunOptions opt;
    opt.plan.kill(7, 3);  // no such rank
    EXPECT_THROW((void)run_parallel_ft(cfg, 3, opt), std::invalid_argument);
  }
  {
    FtRunOptions opt;
    opt.standby_replicas = -1;
    EXPECT_THROW((void)run_parallel_ft(cfg, 3, opt), std::invalid_argument);
  }
  {
    FtRunOptions opt;
    opt.master_silence_ms = -1.0;
    EXPECT_THROW((void)run_parallel_ft(cfg, 3, opt), std::invalid_argument);
  }
  {
    FtRunOptions opt;
    opt.detect_timeout_ms = -1.0;
    EXPECT_THROW((void)run_parallel_ft(cfg, 3, opt), std::invalid_argument);
  }
  {
    FtRunOptions opt;
    opt.max_pings = 0;
    EXPECT_THROW((void)run_parallel_ft(cfg, 3, opt), std::invalid_argument);
  }
  EXPECT_THROW((void)run_parallel_ft(cfg, 11), std::invalid_argument)
      << "more ranks than SSets";
}

}  // namespace
}  // namespace egt::ft
