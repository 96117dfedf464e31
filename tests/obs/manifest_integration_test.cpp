// End-to-end observability acceptance:
//   * serial and parallel runs of the same config report identical
//     engine.pairs_evaluated and engine.generations;
//   * a serial run's manifest phase times account for (nearly all of) the
//     measured wall time;
//   * a parallel manifest carries the broadcast vs point-to-point traffic
//     split, per rank — and every manifest validates against the
//     documented egt.run_manifest/v4 schema.
#include <gtest/gtest.h>

#include <sstream>

#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/parallel_engine.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "schema_check.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace egt::obs {
namespace {

core::SimConfig busy_config() {
  core::SimConfig cfg;
  cfg.ssets = 24;
  cfg.memory = 1;
  cfg.generations = 100;
  cfg.pc_rate = 0.5;
  cfg.mutation_rate = 0.2;
  cfg.seed = 11;
  cfg.fitness_mode = core::FitnessMode::Analytic;
  return cfg;
}

util::JsonValue manifest_doc(const ManifestInfo& info) {
  std::ostringstream os;
  write_run_manifest(os, info);
  return util::JsonValue::parse(os.str());
}

TEST(ManifestIntegration, SerialAndParallelCountersMatch) {
  const core::SimConfig cfg = busy_config();

  MetricsRegistry serial_reg;
  core::Engine engine(cfg, &serial_reg);
  engine.run_all();
  const MetricsSnapshot serial = serial_reg.snapshot();

  core::ParallelRunOptions popts;
  const auto par4 = core::run_parallel(cfg, 4, popts);

  EXPECT_EQ(serial.counter_value("engine.generations"), cfg.generations);
  EXPECT_EQ(par4.metrics.counter_value("engine.generations"),
            cfg.generations);
  EXPECT_EQ(par4.metrics.counter_value("engine.pairs_evaluated"),
            serial.counter_value("engine.pairs_evaluated"));
  EXPECT_EQ(serial.counter_value("engine.pairs_evaluated"),
            engine.pairs_evaluated());
  // Population-dynamics event counts match too (counted once, at rank 0).
  for (const char* name : {"engine.pc_events", "engine.adoptions",
                           "engine.mutations"}) {
    EXPECT_EQ(par4.metrics.counter_value(name), serial.counter_value(name))
        << name;
  }
}

TEST(ManifestIntegration, SerialPhaseTimesAccountForWallTime) {
  // Sampled fitness replays every game each generation, so virtually all
  // wall time sits inside the five instrumented phases.
  core::SimConfig cfg = busy_config();
  cfg.ssets = 48;
  cfg.generations = 60;
  cfg.fitness_mode = core::FitnessMode::Sampled;

  MetricsRegistry reg;
  util::Timer wall;
  core::Engine engine(cfg, &reg);
  engine.run_all();
  const double wall_seconds = wall.seconds();
  const MetricsSnapshot snap = reg.snapshot();

  ManifestInfo info;
  info.tool = "egtsim/test";
  info.config_summary = cfg.summary();
  info.config_fingerprint = core::config_fingerprint(cfg);
  info.generations = cfg.generations;
  info.wall_seconds = wall_seconds;
  info.metrics = &snap;
  const auto doc = manifest_doc(info);
  testing::expect_valid_manifest(doc, /*expect_traffic=*/false);

  double phase_sum = 0.0;
  for (const auto& [name, ph] : doc.at("phases").members()) {
    phase_sum += ph.at("seconds").as_number();
  }
  EXPECT_NEAR(phase_sum, snap.phase_total_seconds(), 1e-9);
  // Acceptance: phases sum to within 10% of the wall time. They are
  // strict sub-intervals of the measured wall span, so the sum can only
  // fall short, never overshoot.
  EXPECT_LE(phase_sum, wall_seconds * 1.001);
  EXPECT_GE(phase_sum, wall_seconds * 0.9)
      << "phases " << phase_sum << "s of wall " << wall_seconds << "s";
  // All five phases appear in the document.
  EXPECT_EQ(doc.at("phases").size(), 5u);
}

TEST(ManifestIntegration, ParallelManifestReportsPerRankTrafficSplit) {
  core::SimConfig cfg = busy_config();
  cfg.comm_pattern = core::CommPattern::PaperBcast;

  constexpr int kRanks = 4;
  util::Timer wall;
  const auto result = core::run_parallel(cfg, kRanks);
  const double wall_seconds = wall.seconds();

  ManifestInfo info;
  info.tool = "egtsim/test";
  info.config_summary = cfg.summary();
  info.config_fingerprint = core::config_fingerprint(cfg);
  info.ranks = kRanks;
  info.generations = cfg.generations;
  info.wall_seconds = wall_seconds;
  info.metrics = &result.metrics;
  info.traffic = &result.traffic;
  const auto doc = manifest_doc(info);
  testing::expect_valid_manifest(doc, /*expect_traffic=*/true);

  const auto& t = doc.at("traffic");
  // The paper's pattern broadcasts every generation plan: broadcast-tree
  // traffic must dominate, and the p2p fitness returns must be visible.
  EXPECT_GT(t.at("broadcast").at("messages").as_u64(), 0u);
  EXPECT_GT(t.at("p2p").at("messages").as_u64(), 0u);
  ASSERT_EQ(t.at("per_rank").size(), static_cast<std::size_t>(kRanks));
  // Rank 0 (the Nature Agent) originates the plan broadcast.
  EXPECT_GT(
      t.at("per_rank").items()[0].at("bcast_messages").as_u64(), 0u);
  // Merged phase timers exist for every phase and stay within the
  // physically possible envelope (kRanks concurrent timelines).
  double phase_sum = 0.0;
  for (const auto& [name, ph] : doc.at("phases").members()) {
    phase_sum += ph.at("seconds").as_number();
  }
  EXPECT_GT(phase_sum, 0.0);
  EXPECT_LE(phase_sum, wall_seconds * kRanks * 1.001);
  EXPECT_EQ(doc.at("phases").size(), 5u);
  // The ranks gauge travels with the manifest.
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("engine.ranks").as_number(),
                   static_cast<double>(kRanks));
}

TEST(ManifestIntegration, ParallelOptionsMergeIntoCallerRegistry) {
  const core::SimConfig cfg = busy_config();
  MetricsRegistry mine;
  core::ParallelRunOptions popts;
  popts.metrics = &mine;
  const auto result = core::run_parallel(cfg, 2, popts);
  const auto snap = mine.snapshot();
  EXPECT_EQ(snap.counter_value("engine.pairs_evaluated"),
            result.metrics.counter_value("engine.pairs_evaluated"));
  EXPECT_EQ(snap.counter_value("engine.generations"), cfg.generations);
  EXPECT_GT(snap.phase_total_seconds(), 0.0);
}

}  // namespace
}  // namespace egt::obs
