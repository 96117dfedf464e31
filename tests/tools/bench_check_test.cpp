// Unit tests for the perf-gate semantics in tools/bench_check_lib.hpp.
//
// The motivating bug: bench_check compared single-sample wall_s values with
// a pure ratio test, so a 0.5 ms analytic row could trip the CI gate on
// scheduler jitter alone. The gate now requires a regression to be both
// relatively (--max-regress) and absolutely (--noise-floor) significant.
#include "bench_check_lib.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/json.hpp"

namespace egt::bench {
namespace {

TEST(TimeGate, RelativeBudgetStillApplies) {
  TimeGate g{/*max_regress=*/0.25, /*min_seconds=*/0.0, /*noise_floor=*/0.005};
  EXPECT_FALSE(time_regressed(1.0, 1.0, g));
  EXPECT_FALSE(time_regressed(1.0, 1.24, g));   // inside relative budget
  EXPECT_TRUE(time_regressed(1.0, 1.26, g));    // past both budgets
  EXPECT_TRUE(time_regressed(0.4, 0.9, g));
}

TEST(TimeGate, NoiseFloorProtectsSubMillisecondRows) {
  TimeGate g{/*max_regress=*/0.25, /*min_seconds=*/0.0, /*noise_floor=*/0.005};
  // A 0.5 ms row jittering to 2 ms is a 4x "slowdown" but only +1.5 ms —
  // well under the floor, so it must pass.
  EXPECT_FALSE(time_regressed(0.0005, 0.002, g));
  EXPECT_FALSE(time_regressed(0.0005, 0.0054, g));  // exactly +floor-ish
  // A genuine regression on the same row (0.5 ms -> 20 ms) still fails.
  EXPECT_TRUE(time_regressed(0.0005, 0.020, g));
}

TEST(TimeGate, NoiseFloorAloneDoesNotExcuseBigRows) {
  // On slow rows the relative budget dominates: +5 ms of slack is nothing
  // against a 1 s baseline, and a 30% regression must still fail.
  TimeGate g{/*max_regress=*/0.25, /*min_seconds=*/0.0, /*noise_floor=*/0.005};
  EXPECT_TRUE(time_regressed(1.0, 1.3, g));
}

TEST(TimeGate, MinSecondsSkipsRowsEntirely) {
  TimeGate g{/*max_regress=*/0.25, /*min_seconds=*/0.05, /*noise_floor=*/0.0};
  EXPECT_FALSE(time_regressed(0.01, 10.0, g));  // below min_seconds: skipped
  EXPECT_TRUE(time_regressed(0.06, 10.0, g));
}

util::JsonValue doc(const std::string& rows) {
  return util::JsonValue::parse(
      R"({"schema":"egt.bench_fitness/v1","rows":[)" + rows + "]}");
}

std::string row(const std::string& name, double wall_s,
                std::uint64_t pairs = 100, std::uint64_t games = 100,
                const std::string& hash = "abc") {
  std::ostringstream os;
  os << R"({"name":")" << name << R"(","wall_s":)" << wall_s
     << R"(,"pairs_evaluated":)" << pairs << R"(,"games_played":)" << games
     << R"(,"table_hash":")" << hash << R"("})";
  return os.str();
}

TEST(CheckBaseline, PassesWithinBudgets) {
  TimeGate g{0.25, 0.0, 0.005};
  std::ostringstream out, err;
  const auto base = doc(row("analytic", 0.0005) + "," + row("sampled", 0.5));
  const auto cur = doc(row("analytic", 0.002) + "," + row("sampled", 0.55));
  EXPECT_EQ(check_baseline(base, cur, g, out, err), 0);
}

TEST(CheckBaseline, FailsOnGenuineSlowdownAndCounterDrift) {
  TimeGate g{0.25, 0.0, 0.005};
  std::ostringstream out, err;
  const auto base = doc(row("analytic", 0.0005) + "," + row("sampled", 0.5));
  const auto cur = doc(row("analytic", 0.5) + "," +
                       row("sampled", 0.55, /*pairs=*/101));
  // analytic: time regression; sampled: pairs_evaluated drift.
  EXPECT_EQ(check_baseline(base, cur, g, out, err), 2);
  EXPECT_NE(err.str().find("wall time"), std::string::npos);
  EXPECT_NE(err.str().find("pairs_evaluated"), std::string::npos);
}

TEST(CheckBaseline, FailsOnMissingRowAndHashDivergence) {
  TimeGate g{0.25, 0.0, 0.005};
  std::ostringstream out, err;
  const auto base = doc(row("a", 0.1) + "," + row("b", 0.1));
  const auto cur =
      doc(row("a", 0.1, 100, 100, "different-hash"));
  EXPECT_EQ(check_baseline(base, cur, g, out, err), 2);
  EXPECT_NE(err.str().find("hash"), std::string::npos);
  EXPECT_NE(err.str().find("missing"), std::string::npos);
}

util::JsonValue doc_with_lanes(std::uint64_t lanes, const std::string& rows) {
  return util::JsonValue::parse(
      R"({"schema":"egt.bench_fitness/v1","config":{"stream_lanes":)" +
      std::to_string(lanes) + R"(},"rows":[)" + rows + "]}");
}

const TwinRatio kGate[] = {{"lanes", "lanes scalar", 0.8, 16}};

TEST(CheckTwinRatios, PassesWithinBoundAndFailsPastIt) {
  std::ostringstream out, err;
  EXPECT_EQ(check_twin_ratios(doc_with_lanes(16, row("lanes", 0.05) + "," +
                                                     row("lanes scalar", 0.1)),
                              kGate, out, err),
            0);
  // 0.09 / 0.1 = 0.9 > 0.8: the lane kernel lost its edge on this host.
  EXPECT_EQ(check_twin_ratios(doc_with_lanes(16, row("lanes", 0.09) + "," +
                                                     row("lanes scalar", 0.1)),
                              kGate, out, err),
            1);
  EXPECT_NE(err.str().find("wall ratio"), std::string::npos);
}

TEST(CheckTwinRatios, NarrowerHostReportsWithoutGating) {
  std::ostringstream out, err;
  // Scalar-only build or CPU: the twins run one kernel, ratio ~1.
  EXPECT_EQ(check_twin_ratios(doc_with_lanes(1, row("lanes", 0.1) + "," +
                                                    row("lanes scalar", 0.1)),
                              kGate, out, err),
            0);
  EXPECT_NE(out.str().find("not gated"), std::string::npos);
}

TEST(CheckTwinRatios, FailsOnMissingTwinDivergenceOrNoLanes) {
  std::ostringstream out, err;
  EXPECT_EQ(check_twin_ratios(doc_with_lanes(16, row("lanes", 0.05)), kGate,
                              out, err),
            1);
  EXPECT_EQ(check_twin_ratios(
                doc_with_lanes(16, row("lanes", 0.05) + "," +
                                       row("lanes scalar", 0.1, 100, 100,
                                           "other")),
                kGate, out, err),
            1);
  EXPECT_EQ(check_twin_ratios(
                util::JsonValue::parse(
                    R"({"schema":"egt.bench_fitness/v1","config":{},"rows":[)" +
                    row("lanes", 0.05) + "," + row("lanes scalar", 0.1) +
                    "]}"),
                kGate, out, err),
            1);
}

// The gates bench_check applies by default: the sampled lane kernel on
// pure and on mixed memory-six play, each against its forced-scalar twin.
TEST(CheckTwinRatios, DefaultGateIsTheSampledKernelTwin) {
  ASSERT_EQ(std::size(kTwinRatios), 2u);
  EXPECT_STREQ(kTwinRatios[0].fast, "sampled m6 noisy");
  EXPECT_STREQ(kTwinRatios[0].slow, "sampled m6 noisy scalar");
  EXPECT_EQ(kTwinRatios[0].max_ratio, 0.8);
  EXPECT_STREQ(kTwinRatios[1].fast, "sampled m6 mixed noisy");
  EXPECT_STREQ(kTwinRatios[1].slow, "sampled m6 mixed noisy scalar");
  EXPECT_EQ(kTwinRatios[1].max_ratio, 0.7);
}

TEST(CheckTraceOverhead, NoiseFloorAppliesToTracedTwin) {
  TimeGate g{0.25, 0.0, 0.005};
  std::ostringstream out, err;
  // 0.8 ms untraced, 1.4 ms traced: 75% "overhead" but inside the floor.
  const auto d =
      doc(row("fast", 0.0008) + "," + row("fast + trace", 0.0014));
  EXPECT_EQ(check_trace_overhead(d, /*max_overhead=*/0.05, g, out, err), 0);
}

TEST(CheckTraceOverhead, FailsOnRealOverheadAndTrajectoryChange) {
  TimeGate g{0.25, 0.0, 0.005};
  std::ostringstream out, err;
  const auto d = doc(row("slow", 0.5) + "," +
                     row("slow + trace", 0.7, 100, 100, "other"));
  // wall overhead past 5% + floor, and the table hash moved: 2 failures.
  EXPECT_EQ(check_trace_overhead(d, /*max_overhead=*/0.05, g, out, err), 2);
}

TEST(CheckTraceOverhead, FailsWhenNoTracedRowsExist) {
  TimeGate g;
  std::ostringstream out, err;
  const auto d = doc(row("only", 0.1));
  EXPECT_EQ(check_trace_overhead(d, 0.05, g, out, err), 1);
}

}  // namespace
}  // namespace egt::bench
