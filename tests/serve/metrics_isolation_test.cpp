// Per-job metrics isolation (satellite S3): two jobs running concurrently
// on the shared worker pool must each report counters identical to a solo
// serial run — nothing bleeds between jobs through a shared registry, and
// BlockFitness's fitness.* instruments land in the registry the job was
// given, not a global one.
#include <gtest/gtest.h>

#include <string>

#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "serve/job_checkpoint.hpp"
#include "serve/jobspec.hpp"
#include "serve/scheduler.hpp"

namespace egt::serve {
namespace {

core::SimConfig tiny_config(std::uint64_t seed, core::FitnessMode mode) {
  core::SimConfig cfg;
  cfg.ssets = 8;
  cfg.memory = 1;
  cfg.generations = 15;
  cfg.pc_rate = 0.4;
  cfg.mutation_rate = 0.2;
  cfg.seed = seed;
  cfg.fitness_mode = mode;
  return cfg;
}

EngineCounters serial_counters(const core::SimConfig& cfg) {
  obs::MetricsRegistry reg;
  core::Engine engine(cfg, &reg);
  engine.run(cfg.generations);
  const obs::MetricsSnapshot s = reg.snapshot();
  EngineCounters c;
  c.generations = s.counter_value("engine.generations");
  c.pc_events = s.counter_value("engine.pc_events");
  c.adoptions = s.counter_value("engine.adoptions");
  c.moran_events = s.counter_value("engine.moran_events");
  c.mutations = s.counter_value("engine.mutations");
  c.pairs_evaluated = s.counter_value("engine.pairs_evaluated");
  c.games_played = s.counter_value("engine.games_played");
  return c;
}

TEST(MetricsIsolation, ConcurrentJobsReportSoloRunCounters) {
  // Deliberately different workloads so cross-talk cannot cancel out:
  // different seeds, sizes and fitness modes.
  const core::SimConfig cfg_a = tiny_config(101, core::FitnessMode::Sampled);
  core::SimConfig cfg_b = tiny_config(202, core::FitnessMode::Analytic);
  cfg_b.ssets = 12;
  cfg_b.generations = 22;

  JobSpec spec_a;
  spec_a.tenant = "alice";
  spec_a.config = cfg_a;
  JobSpec spec_b;
  spec_b.tenant = "bob";
  spec_b.config = cfg_b;

  SchedulerOptions opts;
  opts.workers = 2;  // genuinely concurrent
  Scheduler sched(opts);
  sched.start();
  ASSERT_TRUE(sched.submit(job_spec_to_json(spec_a)).accepted);
  ASSERT_TRUE(sched.submit(job_spec_to_json(spec_b)).accepted);
  sched.drain();
  ASSERT_EQ(sched.state(1), JobState::Completed);
  ASSERT_EQ(sched.state(2), JobState::Completed);

  EXPECT_TRUE(counters_equal(sched.result(1)->counters,
                             serial_counters(cfg_a)))
      << "job 1 counters polluted by the concurrent job";
  EXPECT_TRUE(counters_equal(sched.result(2)->counters,
                             serial_counters(cfg_b)))
      << "job 2 counters polluted by the concurrent job";
  sched.shutdown();
}

TEST(MetricsIsolation, BlockFitnessInstrumentsLandInThePassedRegistry) {
  // A job resume restores the fitness block, which bumps
  // fitness.state_restores; the count must land in the registry handed to
  // the resumed Engine, not the one the checkpointed run used.
  const core::SimConfig cfg = tiny_config(303, core::FitnessMode::Analytic);
  obs::MetricsRegistry first_reg;
  core::Engine first(cfg, &first_reg);
  first.run(5);
  JobCheckpoint ckpt = capture_job_checkpoint(first, EngineCounters{}, 1, 0);
  obs::MetricsRegistry reg;
  const core::Engine resumed = resume_job_engine(cfg, std::move(ckpt), &reg);
  EXPECT_EQ(reg.snapshot().counter_value("fitness.state_restores"), 1u);
  EXPECT_EQ(first_reg.snapshot().counter_value("fitness.state_restores"), 0u);
  // And a fresh registry starts at zero — no process-global accumulation.
  obs::MetricsRegistry fresh;
  EXPECT_EQ(fresh.snapshot().counter_value("fitness.state_restores"), 0u);
}

}  // namespace
}  // namespace egt::serve
