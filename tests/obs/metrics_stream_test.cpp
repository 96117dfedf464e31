// Live-telemetry stream tests (obs/metrics_stream.hpp): the NDJSON lines
// must parse, carry the documented egt.metrics_stream/v1 fields in
// generation order, respect the sampling gate, deduplicate failover
// replays, and degrade to an inert writer on an unwritable path.
#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/parallel_engine.hpp"
#include "ft/ft_engine.hpp"
#include "ft/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_stream.hpp"
#include "util/json.hpp"

namespace egt::obs {
namespace {

core::SimConfig small_config() {
  core::SimConfig cfg;
  cfg.ssets = 16;
  cfg.memory = 1;
  cfg.generations = 20;
  cfg.seed = 42;
  cfg.fitness_mode = core::FitnessMode::Analytic;
  return cfg;
}

std::vector<util::JsonValue> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<util::JsonValue> docs;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) docs.push_back(util::JsonValue::parse(line));
  }
  return docs;
}

TEST(MetricsStream, WritesSchemaValidLinesInGenerationOrder) {
  const std::string path = ::testing::TempDir() + "egt_stream.ndjson";
  const core::SimConfig cfg = small_config();
  MetricsRegistry registry;
  core::Engine engine(cfg, &registry);

  MetricsStreamWriter writer({path, /*every=*/1});
  ASSERT_TRUE(writer.ok());
  for (std::uint64_t gen = 0; gen < 5; ++gen) {
    engine.step();
    writer.on_generation(gen, engine.population(), registry);
  }
  EXPECT_EQ(writer.lines_written(), 5u);

  const auto docs = read_lines(path);
  ASSERT_EQ(docs.size(), 5u);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    const auto& d = docs[i];
    EXPECT_EQ(d.at("schema").as_string(), kMetricsStreamSchema);
    const std::uint64_t gen = d.at("generation").as_u64();
    if (i > 0) EXPECT_GT(gen, prev);
    prev = gen;
    EXPECT_GE(d.at("wall_seconds").as_number(), 0.0);
    EXPECT_TRUE(d.at("mean_fitness").is_number());
    // All five canonical phases, "phase." prefix stripped.
    for (const char* name : phase::kAll) {
      EXPECT_TRUE(d.at("phases").has(std::string(name).substr(6))) << name;
    }
    EXPECT_TRUE(d.at("counters").at("games_played").is_number());
    EXPECT_TRUE(d.at("counters").at("pairs_evaluated").is_number());
    EXPECT_GE(d.at("strategy_classes").as_u64(), 1u);
    EXPECT_TRUE(d.at("top_class_counts").is_array());
  }
}

TEST(MetricsStream, SamplingGateAndWants) {
  const std::string path = ::testing::TempDir() + "egt_stream_every.ndjson";
  const core::SimConfig cfg = small_config();
  MetricsRegistry registry;
  core::Engine engine(cfg, &registry);
  engine.step();

  MetricsStreamWriter writer({path, /*every=*/5});
  ASSERT_TRUE(writer.ok());
  for (std::uint64_t gen = 0; gen < 20; ++gen) {
    EXPECT_EQ(writer.wants(gen), gen % 5 == 0) << gen;
    writer.on_generation(gen, engine.population(), registry);
  }
  EXPECT_EQ(writer.lines_written(), 4u);  // gens 0, 5, 10, 15
  const auto docs = read_lines(path);
  ASSERT_EQ(docs.size(), 4u);
  EXPECT_EQ(docs.back().at("generation").as_u64(), 15u);
}

TEST(MetricsStream, DeduplicatesReplayedGenerations) {
  const std::string path = ::testing::TempDir() + "egt_stream_dedup.ndjson";
  const core::SimConfig cfg = small_config();
  MetricsRegistry registry;
  core::Engine engine(cfg, &registry);
  engine.step();

  MetricsStreamWriter writer({path, 1});
  ASSERT_TRUE(writer.ok());
  writer.on_generation(3, engine.population(), registry);
  // A failover replay re-commits generations the old master already
  // streamed; the writer must drop them.
  writer.on_generation(3, engine.population(), registry);
  writer.on_generation(2, engine.population(), registry);
  writer.on_generation(4, engine.population(), registry);
  EXPECT_EQ(writer.lines_written(), 2u);
  const auto docs = read_lines(path);
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs[0].at("generation").as_u64(), 3u);
  EXPECT_EQ(docs[1].at("generation").as_u64(), 4u);
}

TEST(MetricsStream, UnwritablePathStaysInert) {
  const core::SimConfig cfg = small_config();
  MetricsRegistry registry;
  core::Engine engine(cfg, &registry);
  engine.step();

  MetricsStreamWriter writer(
      {"/nonexistent-dir-egt/stream.ndjson", /*every=*/1});
  EXPECT_FALSE(writer.ok());
  EXPECT_FALSE(writer.wants(0));
  // Emission on a failed writer must be a harmless no-op, not a throw —
  // run_simulation warns once and continues the run.
  writer.on_generation(0, engine.population(), registry);
  EXPECT_EQ(writer.lines_written(), 0u);
}

TEST(MetricsStream, SerialObserverAdapterStreamsEveryGeneration) {
  const std::string path = ::testing::TempDir() + "egt_stream_obs.ndjson";
  core::SimConfig cfg = small_config();
  cfg.generations = 10;
  MetricsRegistry registry;
  core::Engine engine(cfg, &registry);
  MetricsStreamWriter writer({path, 1});
  ASSERT_TRUE(writer.ok());
  MetricsStreamObserver observer(writer, registry);
  engine.run_all(&observer);
  EXPECT_EQ(writer.lines_written(), cfg.generations);
}

/// Each line's (generation, mean_fitness bits).
using StreamedMeans = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

StreamedMeans streamed_means(const std::string& path) {
  StreamedMeans out;
  for (const auto& d : read_lines(path)) {
    out.emplace_back(d.at("generation").as_u64(),
                     std::bit_cast<std::uint64_t>(
                         d.at("mean_fitness").as_number()));
  }
  return out;
}

TEST(MetricsStream, EveryEngineStreamsTheSameMeanFitness) {
  // Every engine streams the mean of the top-of-generation fitness vector
  // in SSet order, so every line carries the serial engine's bits: the
  // rank count, the broadcast pattern and a healed DECIDE drop change
  // nothing.
  core::SimConfig cfg;
  cfg.ssets = 32;
  cfg.memory = 1;
  cfg.space = pop::StrategySpace::Mixed;
  cfg.game.noise = 0.02;
  cfg.pc_rate = 0.5;
  cfg.mutation_rate = 0.2;
  cfg.generations = 16;
  cfg.seed = 5;
  cfg.fitness_mode = core::FitnessMode::Analytic;
  const std::string path = ::testing::TempDir() + "egt_stream_engines.ndjson";
  for (const auto rule :
       {pop::UpdateRule::PairwiseComparison, pop::UpdateRule::Moran}) {
    cfg.update_rule = rule;
    SCOPED_TRACE(rule == pop::UpdateRule::Moran ? "Moran" : "PC");
    {
      MetricsRegistry registry;
      core::Engine engine(cfg, &registry);
      MetricsStreamWriter writer({path, 1});
      MetricsStreamObserver observer(writer, registry);
      engine.run_all(&observer);
      ASSERT_EQ(writer.lines_written(), cfg.generations);
    }
    const StreamedMeans serial = streamed_means(path);
    for (const int ranks : {1, 3}) {
      for (const auto pattern : {core::CommPattern::PaperBcast,
                                 core::CommPattern::ReplicatedNature}) {
        SCOPED_TRACE("run_parallel, " + std::to_string(ranks) + " ranks, " +
                     (pattern == core::CommPattern::PaperBcast ? "PaperBcast"
                                                               : "Replicated"));
        core::SimConfig c = cfg;
        c.comm_pattern = pattern;
        {
          MetricsStreamWriter writer({path, 1});
          core::ParallelRunOptions opt;
          opt.metrics_stream = &writer;
          (void)core::run_parallel(c, ranks, opt);
        }
        EXPECT_EQ(streamed_means(path), serial);
      }
    }
    for (const bool drop : {false, true}) {
      SCOPED_TRACE(drop ? "ft, one DECIDE dropped" : "ft, fault-free");
      {
        MetricsStreamWriter writer({path, 1});
        ft::FtRunOptions opt;
        opt.metrics_stream = &writer;
        if (drop) {
          opt.plan.drop({0, ft::kAny, ft::tag::kDecide, /*skip=*/0,
                         /*count=*/1, 0});
        }
        const ft::FtResult r = ft::run_parallel_ft(cfg, 3, opt);
        if (drop) EXPECT_GE(r.metrics.counter_value("ft.heals"), 1u);
      }
      EXPECT_EQ(streamed_means(path), serial);
    }
  }
}

}  // namespace
}  // namespace egt::obs
