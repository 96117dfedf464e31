// Tests of the benchmark's own machinery: route census, the ledger
// identity and open-loop lag accounting.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/config.hpp"
#include "game/named.hpp"
#include "ledger_lib.hpp"

namespace {

using perfbench::Span;

egt::pop::Population tiny_mixed_population(int memory) {
  using egt::game::MixedStrategy;
  return egt::pop::Population({egt::game::named::all_c(memory),
                               egt::game::named::all_d(memory),
                               MixedStrategy(memory, 0.5),
                               MixedStrategy(memory, 0.3)});
}

egt::core::SimConfig tiny_config(int memory, egt::core::FitnessMode mode) {
  egt::core::SimConfig c;
  c.memory = memory;
  c.ssets = 4;
  c.fitness_mode = mode;
  return c;
}

TEST(RouteCensus, ClassifiesEveryOrderedPairOfAMixedPopulation) {
  const auto pop = tiny_mixed_population(1);
  const egt::core::PairEvaluator analytic(
      tiny_config(1, egt::core::FitnessMode::Analytic));
  const perfbench::RouteCounts c = perfbench::count_routes(analytic, pop);
  EXPECT_EQ(c.pure_exact, 2u);    // all_c <-> all_d, both orders
  EXPECT_EQ(c.mem1_markov, 10u);  // every pair with a mixed side
  EXPECT_EQ(c.sampled_stream, 0u);
  EXPECT_EQ(c.nway_spec, 0u);

  const egt::core::PairEvaluator sampled(
      tiny_config(1, egt::core::FitnessMode::Sampled));
  EXPECT_EQ(perfbench::count_routes(sampled, pop).sampled_stream, 12u);

  // Stochastic memory-2 pairs have no closed form: stream play.
  const egt::core::PairEvaluator mem2(
      tiny_config(2, egt::core::FitnessMode::Analytic));
  const perfbench::RouteCounts c2 =
      perfbench::count_routes(mem2, tiny_mixed_population(2));
  EXPECT_EQ(c2.pure_exact, 2u);
  EXPECT_EQ(c2.sampled_stream, 10u);
}

TEST(Ledger, LayersPlusResidualEqualWall) {
  const std::vector<Span> roots = {{"bench.run", 0, 100}};
  const std::vector<Span> spans = {
      {"generation", 10, 60},      {"phase.game_play", 15, 40},
      {"comm.recv", 20, 30},       {"phase.apply_update", 45, 55},
      {"generation", 65, 95},      {"phase.game_play", 70, 90},
      {"generation", 120, 130},  // outside the root: ignored
      {"comm.recv", 90, 110},    // sticks out of the root: ignored
  };
  const auto ledger = perfbench::build_ledger(
      roots, spans,
      [](const std::string& n) { return n.rfind("bench.", 0) == 0; },
      [](const std::string& n) { return n; });
  EXPECT_DOUBLE_EQ(ledger.wall_s, 100e-9);
  EXPECT_NEAR(ledger.residual_s, 20e-9, 1e-15);  // 100 - 50 - 30
  EXPECT_NEAR(ledger.layers.at("phase.game_play"), (15 + 20) * 1e-9, 1e-15);
  EXPECT_NEAR(ledger.layers.at("comm.recv"), 10e-9, 1e-15);
  EXPECT_NEAR(ledger.layers.at("generation"), (15 + 10) * 1e-9, 1e-15);
  EXPECT_NEAR(ledger.accounted_s() + ledger.residual_s, ledger.wall_s, 1e-15);
  EXPECT_NEAR(ledger.unaccounted_frac(), 0.2, 1e-12);
}

TEST(Ledger, OverlappingSiblingsAreClippedSoSelfTimesStillAddUp) {
  const auto self = perfbench::self_times(
      {{"root", 0, 100}, {"a", 10, 50}, {"b", 40, 70}, {"c", 60, 80}});
  double total = 0.0;
  for (const auto& [name, s] : self) total += s;
  EXPECT_NEAR(total, 100e-9, 1e-15);
  // b is clipped to a ([40, 50]); the rest of b is the root's own time.
  EXPECT_NEAR(self.at("b"), 10e-9, 1e-15);
  EXPECT_NEAR(self.at("root"), (10 + 10 + 20) * 1e-9, 1e-15);  // 0-10, 50-60, 80-100
}

TEST(OpenLoop, StalledGeneratorShowsAsLagNotLowerLatency) {
  const std::vector<double> due = {0.0, 0.01, 0.02, 0.03};
  const auto sent = perfbench::run_open_loop(
      due, std::chrono::steady_clock::now(), [](std::size_t i) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
      });
  ASSERT_EQ(sent.size(), due.size());
  EXPECT_GE(sent[0].call_s, 0.1);
  for (std::size_t i = 1; i < sent.size(); ++i) {
    // Later requests went out late by what the stall cost them...
    EXPECT_GE(sent[i].lag_s(), 0.1 - due[i] - 1e-3);
    // ...and their latency, timed from the due time, includes that wait.
    const double from_due = sent[i].sent_s + sent[i].call_s - sent[i].due_s;
    EXPECT_GE(from_due, sent[i].lag_s());
    EXPECT_GE(from_due, 0.1 - due[i] - 1e-3);
  }
}

TEST(OpenLoop, PoissonScheduleIsSeededSortedAndSpansItsWindow) {
  const auto a = perfbench::poisson_schedule(200, 10.0, 7);
  EXPECT_EQ(a, perfbench::poisson_schedule(200, 10.0, 7));
  EXPECT_NE(a, perfbench::poisson_schedule(200, 10.0, 8));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_DOUBLE_EQ(a.back(), 20.0);  // the last request ends the schedule
  EXPECT_LT(a[a.size() - 2], 20.0);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(perfbench::quantile({3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::quantile({1, 2, 3, 4, 5}, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(perfbench::quantile({}, 0.9), 0.0);
}

}  // namespace
