#include "pop/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "game/named.hpp"
#include "game/strategy.hpp"
#include "util/rng.hpp"

namespace egt::pop {
namespace {

Population uniform_population(std::size_t n, const game::Strategy& s) {
  return Population(std::vector<game::Strategy>(n, s));
}

TEST(Stats, CensusOfUniformPopulation) {
  const auto p = uniform_population(10, game::named::win_stay_lose_shift(1));
  const auto c = census(p);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.front().count, 10u);
  EXPECT_DOUBLE_EQ(dominant_fraction(p), 1.0);
  EXPECT_DOUBLE_EQ(strategy_entropy(p), 0.0);
  EXPECT_EQ(distinct_strategies(p), 1u);
}

TEST(Stats, CensusSortsByCount) {
  std::vector<game::Strategy> ss;
  for (int i = 0; i < 6; ++i) ss.emplace_back(game::named::all_c(1));
  for (int i = 0; i < 3; ++i) ss.emplace_back(game::named::all_d(1));
  ss.emplace_back(game::named::tit_for_tat(1));
  const Population p(std::move(ss));
  const auto c = census(p);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].count, 6u);
  EXPECT_EQ(c[1].count, 3u);
  EXPECT_EQ(c[2].count, 1u);
  EXPECT_DOUBLE_EQ(dominant_fraction(p), 0.6);
}

// The census against brute-force grouping by Strategy::operator==: one
// entry per group of equal strategies, its count, its lowest SSet, and the
// order count descending, then hash, then example; through set_strategy
// churn that frees and recycles class slots.
TEST(Stats, CensusMatchesBruteForceEqualityGrouping) {
  util::Xoshiro256 rng(12);
  std::vector<game::Strategy> ss;
  for (int k = 0; k < 60; ++k) {
    if (k % 4 == 3) {
      ss.emplace_back(game::MixedStrategy::random(1, rng));
    } else {
      ss.emplace_back(game::PureStrategy::random(1, rng));  // 16 tables
    }
  }
  Population p(std::move(ss));
  for (int step = 0; step < 30; ++step) {
    std::vector<CensusEntry> want;
    for (SSetId i = 0; i < p.size(); ++i) {
      bool first = true;
      for (SSetId j = 0; j < i && first; ++j) {
        first = !(p.strategy(j) == p.strategy(i));
      }
      if (!first) continue;
      std::size_t count = 0;
      for (SSetId j = 0; j < p.size(); ++j) {
        count += p.strategy(j) == p.strategy(i) ? 1 : 0;
      }
      want.push_back({p.strategy(i).hash(), count, i});
    }
    std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
      if (a.count != b.count) return a.count > b.count;
      return a.hash != b.hash ? a.hash < b.hash : a.example < b.example;
    });
    const auto got = census(p);
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].hash, want[k].hash) << "step " << step << " k " << k;
      EXPECT_EQ(got[k].count, want[k].count) << "step " << step << " k " << k;
      EXPECT_EQ(got[k].example, want[k].example)
          << "step " << step << " k " << k;
    }
    const auto i = static_cast<SSetId>(util::uniform_below(rng, p.size()));
    const auto j = static_cast<SSetId>(util::uniform_below(rng, p.size()));
    if (step % 3 == 2) {
      p.set_strategy(i, game::PureStrategy::random(1, rng));
    } else {
      p.set_strategy(i, p.strategy(j));
    }
  }
}

TEST(Stats, EntropyOfBalancedSplit) {
  std::vector<game::Strategy> ss;
  for (int i = 0; i < 5; ++i) ss.emplace_back(game::named::all_c(1));
  for (int i = 0; i < 5; ++i) ss.emplace_back(game::named::all_d(1));
  const Population p(std::move(ss));
  EXPECT_NEAR(strategy_entropy(p), std::log(2.0), 1e-12);
}

TEST(Stats, MeanCoopProbability) {
  EXPECT_DOUBLE_EQ(
      mean_coop_probability(uniform_population(4, game::named::all_c(1))),
      1.0);
  EXPECT_DOUBLE_EQ(
      mean_coop_probability(uniform_population(4, game::named::all_d(1))),
      0.0);
  // TFT cooperates in half its states.
  EXPECT_DOUBLE_EQ(
      mean_coop_probability(uniform_population(4, game::named::tit_for_tat(1))),
      0.5);
}

/// The definition: every state's cooperation probability, in SSet then
/// state order.
double per_state_mean(const Population& p) {
  double sum = 0.0;
  std::size_t cells = 0;
  for (SSetId i = 0; i < p.size(); ++i) {
    const auto& s = p.strategy(i);
    for (game::State st = 0; st < s.states(); ++st) sum += s.coop_prob(st);
    cells += s.states();
  }
  return cells == 0 ? 0.0 : sum / static_cast<double>(cells);
}

TEST(Stats, MeanCoopProbabilityHasThePerStateLoopsBits) {
  util::SplitMix64 rng(77);
  for (int memory = 0; memory <= game::kMaxMemory; ++memory) {
    SCOPED_TRACE("memory " + std::to_string(memory));
    std::vector<game::Strategy> pure, mixed, nway, interleaved;
    for (int i = 0; i < 9; ++i) {
      pure.emplace_back(game::PureStrategy::random(memory, rng));
      mixed.emplace_back(game::MixedStrategy::random(memory, rng));
      nway.emplace_back(game::NWayStrategy::random(3, rng));
      // Pure tables after a fractional sum take the loop.
      interleaved.push_back(i % 3 == 1 ? mixed.back() : pure.back());
    }
    for (auto* ss : {&pure, &mixed, &nway, &interleaved}) {
      const Population p(*ss);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(mean_coop_probability(p)),
                std::bit_cast<std::uint64_t>(per_state_mean(p)));
    }
  }
}

TEST(Stats, FractionNearExactAndFuzzy) {
  std::vector<game::Strategy> ss;
  for (int i = 0; i < 8; ++i) {
    ss.emplace_back(game::named::win_stay_lose_shift(1));
  }
  ss.emplace_back(game::named::all_d(1));
  ss.emplace_back(game::MixedStrategy::from_probs({0.95, 0.05, 0.05, 0.95}));
  const Population p(std::move(ss));
  const game::Strategy wsls = game::named::win_stay_lose_shift(1);
  EXPECT_DOUBLE_EQ(fraction_near(p, wsls, 1e-9), 0.8);
  EXPECT_DOUBLE_EQ(fraction_near(p, wsls, 0.25), 0.9);  // picks up the fuzzy one
}

TEST(Stats, MeanPairwiseDistanceOfMonomorphicPopulationIsZero) {
  EXPECT_DOUBLE_EQ(
      mean_pairwise_distance(uniform_population(6, game::named::all_c(1))),
      0.0);
}

TEST(Stats, MeanPairwiseDistanceOfKnownMix) {
  // ALLC vs ALLD differ by 1 in each of 4 states: L2 distance 2. One pair.
  std::vector<game::Strategy> ss{game::named::all_c(1),
                                 game::named::all_d(1)};
  EXPECT_DOUBLE_EQ(mean_pairwise_distance(Population(std::move(ss))), 2.0);
}

TEST(Stats, MeanPairwiseDistanceAveragesOverPairs) {
  // Two ALLC and one ALLD: pairs (C,C)=0, (C,D)=2, (C,D)=2 -> mean 4/3.
  std::vector<game::Strategy> ss{game::named::all_c(1),
                                 game::named::all_c(1),
                                 game::named::all_d(1)};
  EXPECT_NEAR(mean_pairwise_distance(Population(std::move(ss))), 4.0 / 3.0,
              1e-12);
}

TEST(Stats, FormatCensusNamesDominantStrategy) {
  const auto p = uniform_population(5, game::named::win_stay_lose_shift(1));
  const std::string text = format_census(p, 3);
  EXPECT_NE(text.find("WSLS"), std::string::npos);
  EXPECT_NE(text.find("100%"), std::string::npos);
}

}  // namespace
}  // namespace egt::pop
