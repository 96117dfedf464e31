// Manifest writer round-trip: emit JSON, parse it back with
// util::JsonValue and validate against the documented schema.
#include "obs/manifest.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "game/simd.hpp"
#include "obs/metrics.hpp"
#include "schema_check.hpp"
#include "util/json.hpp"

namespace egt::obs {
namespace {

MetricsRegistry& example_registry(MetricsRegistry& reg) {
  reg.counter("engine.generations").inc(100);
  reg.counter("engine.pairs_evaluated").inc(4950);
  reg.gauge("engine.ranks").set(4.0);
  reg.histogram(phase::kGamePlay).record_seconds(0.5);
  reg.histogram(phase::kGamePlay).record_seconds(0.25);
  reg.histogram(phase::kApplyUpdate).record_seconds(0.125);
  reg.histogram("io.checkpoint").record_seconds(0.01);
  return reg;
}

par::TrafficReport example_traffic() {
  par::TrafficReport t;
  t.per_rank.resize(2);
  t.per_rank[0].bcast_bytes = 300;
  t.per_rank[0].bcast_messages = 30;
  t.per_rank[1].p2p_bytes = 100;
  t.per_rank[1].p2p_messages = 10;
  t.bcast_bytes = 300;
  t.bcast_messages = 30;
  t.p2p_bytes = 100;
  t.p2p_messages = 10;
  t.bytes = 400;
  t.messages = 40;
  return t;
}

TEST(Manifest, SerialRoundTripMatchesSchema) {
  MetricsRegistry reg;
  const MetricsSnapshot snap = example_registry(reg).snapshot();
  ManifestInfo info;
  info.tool = "egtsim/test";
  info.config_summary = "8 SSets, memory-1";
  info.config_fingerprint = 0xabcdef;
  info.generations = 100;
  info.wall_seconds = 1.5;
  info.metrics = &snap;

  std::ostringstream os;
  write_run_manifest(os, info);
  const auto doc = util::JsonValue::parse(os.str());
  testing::expect_valid_manifest(doc, /*expect_traffic=*/false);

  EXPECT_EQ(doc.at("tool").as_string(), "egtsim/test");
  EXPECT_EQ(doc.at("run").at("ranks").as_u64(), 0u);
  EXPECT_EQ(doc.at("run").at("generations").as_u64(), 100u);
  EXPECT_DOUBLE_EQ(doc.at("run").at("wall_seconds").as_number(), 1.5);
  EXPECT_EQ(doc.at("config").at("summary").as_string(), "8 SSets, memory-1");
  // Serial manifests have no traffic section at all.
  EXPECT_FALSE(doc.has("traffic"));
  // Phase keys are prefix-stripped; values round-trip.
  const auto& game = doc.at("phases").at("game_play");
  EXPECT_EQ(game.at("count").as_u64(), 2u);
  EXPECT_NEAR(game.at("seconds").as_number(), 0.75, 1e-9);
  EXPECT_NEAR(game.at("min_seconds").as_number(), 0.25, 1e-6);
  EXPECT_NEAR(game.at("max_seconds").as_number(), 0.5, 1e-6);
  EXPECT_EQ(doc.at("counters").at("engine.pairs_evaluated").as_u64(), 4950u);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("engine.ranks").as_number(), 4.0);
  // Non-phase histograms appear under "timers" with their full name.
  EXPECT_FALSE(doc.at("phases").has("io.checkpoint"));
  EXPECT_EQ(doc.at("timers").at("io.checkpoint").at("count").as_u64(), 1u);
}

TEST(Manifest, ParallelRoundTripIncludesPerRankTraffic) {
  MetricsRegistry reg;
  const MetricsSnapshot snap = example_registry(reg).snapshot();
  const par::TrafficReport traffic = example_traffic();
  ManifestInfo info;
  info.tool = "egtsim/test";
  info.config_summary = "8 SSets, memory-1";
  info.ranks = 2;
  info.generations = 100;
  info.wall_seconds = 0.75;
  info.metrics = &snap;
  info.traffic = &traffic;

  std::ostringstream os;
  write_run_manifest(os, info);
  const auto doc = util::JsonValue::parse(os.str());
  testing::expect_valid_manifest(doc, /*expect_traffic=*/true);

  EXPECT_EQ(doc.at("run").at("ranks").as_u64(), 2u);
  const auto& t = doc.at("traffic");
  EXPECT_EQ(t.at("messages").as_u64(), 40u);
  EXPECT_EQ(t.at("broadcast").at("bytes").as_u64(), 300u);
  ASSERT_EQ(t.at("per_rank").size(), 2u);
  EXPECT_EQ(t.at("per_rank").items()[0].at("bcast_messages").as_u64(), 30u);
  EXPECT_EQ(t.at("per_rank").items()[1].at("p2p_messages").as_u64(), 10u);
}

TEST(Manifest, GameBlockRecordsTheSpec) {
  ManifestInfo info;
  info.tool = "egtsim/test";
  info.config_summary = "s";
  const game::GameSpec spec;  // default: the paper's IPD
  info.game = &spec;
  std::ostringstream os;
  write_run_manifest(os, info);
  const auto doc = util::JsonValue::parse(os.str());
  testing::expect_valid_manifest(doc, /*expect_traffic=*/false);
  const auto& g = doc.at("game");
  EXPECT_EQ(g.at("kind").as_string(), "matrix");
  EXPECT_EQ(g.at("name").as_string(), "ipd");
  EXPECT_EQ(g.at("actions").as_u64(), 2u);
  EXPECT_EQ(g.at("play").as_string(), "iterated");
  EXPECT_EQ(g.at("labels").items()[0].as_string(), "C");
  EXPECT_EQ(g.at("labels").items()[1].as_string(), "D");
  char want_hash[24];
  std::snprintf(want_hash, sizeof want_hash, "%016llx",
                static_cast<unsigned long long>(spec.matrix_hash()));
  EXPECT_EQ(g.at("matrix_hash").as_string(), want_hash);
}

TEST(Manifest, GameBlockRecordsPublicGoodsParameters) {
  ManifestInfo info;
  info.tool = "egtsim/test";
  info.config_summary = "s";
  const auto spec = game::GameSpec::public_goods("pgg", 3.0, 1.0, 4);
  info.game = &spec;
  std::ostringstream os;
  write_run_manifest(os, info);
  const auto doc = util::JsonValue::parse(os.str());
  testing::expect_valid_manifest(doc, /*expect_traffic=*/false);
  const auto& g = doc.at("game");
  EXPECT_EQ(g.at("kind").as_string(), "public_goods");
  EXPECT_DOUBLE_EQ(g.at("pgg_r").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(g.at("pgg_cost").as_number(), 1.0);
  EXPECT_EQ(g.at("pgg_k").as_u64(), 4u);
}

TEST(Manifest, ConfigFieldsHookAddsToolSpecificEntries) {
  ManifestInfo info;
  info.tool = "egtsim/test";
  info.config_summary = "s";
  info.config_fields = [](util::JsonWriter& w) {
    w.field("memory", 3);
    w.field("seed", std::uint64_t{99});
  };
  std::ostringstream os;
  write_run_manifest(os, info);
  const auto doc = util::JsonValue::parse(os.str());
  EXPECT_EQ(doc.at("config").at("memory").as_u64(), 3u);
  EXPECT_EQ(doc.at("config").at("seed").as_u64(), 99u);
}

TEST(Manifest, EmptyMetricsStillProducesValidDocument) {
  ManifestInfo info;
  info.tool = "egtsim/test";
  info.config_summary = "s";
  std::ostringstream os;
  write_run_manifest(os, info);
  const auto doc = util::JsonValue::parse(os.str());
  testing::expect_valid_manifest(doc, /*expect_traffic=*/false);
  EXPECT_EQ(doc.at("phases").size(), 0u);
  EXPECT_EQ(doc.at("counters").size(), 0u);
}

TEST(Manifest, FileWriterCreatesParseableFile) {
  ManifestInfo info;
  info.tool = "egtsim/test";
  info.config_summary = "s";
  const std::string path = ::testing::TempDir() + "egt_manifest.json";
  write_run_manifest_file(path, info);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = util::JsonValue::parse(buf.str());
  obs::testing::expect_valid_manifest(doc, /*expect_traffic=*/false);
  std::remove(path.c_str());
}

TEST(Manifest, FileWriterThrowsOnUnopenablePath) {
  ManifestInfo info;
  info.tool = "egtsim/test";
  EXPECT_THROW(
      write_run_manifest_file("/nonexistent-dir/egt_manifest.json", info),
      std::runtime_error);
}

// v4 kernel block: the dispatched kernel and the gates behind it, read at
// write time — forcing scalar must show up as such.
TEST(Manifest, KernelBlockRecordsTheDispatchedKernel) {
  const bool was_forced = game::simd::force_scalar();
  for (const bool force : {true, false}) {
    game::simd::set_force_scalar(force);
    ManifestInfo info;
    info.tool = "egtsim/test";
    std::ostringstream os;
    write_run_manifest(os, info);
    const auto doc = util::JsonValue::parse(os.str());
    testing::expect_valid_manifest(doc, /*expect_traffic=*/false);
    const auto& k = doc.at("kernel");
    EXPECT_EQ(k.at("forced_scalar").as_bool(), force);
    EXPECT_EQ(k.at("avx2_compiled").as_bool(),
              game::simd::compiled_with_avx2());
    EXPECT_EQ(k.at("cpu_avx2").as_bool(), game::simd::cpu_supports_avx2());
    EXPECT_EQ(k.at("cpu_avx512").as_bool(),
              game::simd::cpu_supports_avx512());
    EXPECT_EQ(k.at("dispatched").as_string(),
              game::simd::kernel_name(game::simd::active_kernel()));
    EXPECT_EQ(k.at("mem1_lanes").as_u64(),
              static_cast<std::uint64_t>(game::simd::mem1_lanes()));
    EXPECT_EQ(k.at("stream_lanes").as_u64(),
              static_cast<std::uint64_t>(game::simd::stream_lanes()));
    if (force) {
      EXPECT_EQ(k.at("dispatched").as_string(), "scalar");
      EXPECT_EQ(k.at("mem1_lanes").as_u64(), 1u);
      EXPECT_EQ(k.at("stream_lanes").as_u64(), 1u);
    }
  }
  game::simd::set_force_scalar(was_forced);
}

TEST(Manifest, GitDescribeIsNonEmpty) {
  EXPECT_FALSE(git_describe().empty());
}

}  // namespace
}  // namespace egt::obs
