#include "pop/population.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "game/named.hpp"

namespace egt::pop {
namespace {

TEST(Population, RandomPureIsReproducible) {
  util::Xoshiro256 r1(9), r2(9);
  const auto a = Population::random_pure(16, 2, r1);
  const auto b = Population::random_pure(16, 2, r2);
  EXPECT_EQ(a.table_hash(), b.table_hash());
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(a.memory(), 2);
}

TEST(Population, RandomMixedProducesStochasticStrategies) {
  util::Xoshiro256 rng(1);
  const auto p = Population::random_mixed(8, 1, rng);
  bool any_nondegenerate = false;
  for (SSetId i = 0; i < p.size(); ++i) {
    EXPECT_FALSE(p.strategy(i).is_pure());
    if (!p.strategy(i).as_mixed().is_degenerate()) any_nondegenerate = true;
  }
  EXPECT_TRUE(any_nondegenerate);
}

TEST(Population, SetStrategyReplaces) {
  util::Xoshiro256 rng(2);
  auto p = Population::random_pure(4, 1, rng);
  const game::Strategy wsls = game::named::win_stay_lose_shift(1);
  p.set_strategy(2, wsls);
  EXPECT_TRUE(p.strategy(2) == wsls);
}

TEST(Population, SetStrategyValidates) {
  util::Xoshiro256 rng(3);
  auto p = Population::random_pure(4, 1, rng);
  EXPECT_THROW(p.set_strategy(9, game::named::all_c(1)),
               std::invalid_argument);
  EXPECT_THROW(p.set_strategy(0, game::named::all_c(2)),
               std::invalid_argument);
}

TEST(Population, FitnessStorage) {
  util::Xoshiro256 rng(4);
  auto p = Population::random_pure(4, 1, rng);
  p.set_fitness(1, 3.5);
  EXPECT_DOUBLE_EQ(p.fitness(1), 3.5);
  EXPECT_DOUBLE_EQ(p.fitness(0), 0.0);
  EXPECT_EQ(p.fitness().size(), 4u);
}

TEST(Population, TableHashTracksContent) {
  util::Xoshiro256 rng(5);
  auto p = Population::random_pure(8, 1, rng);
  const auto h0 = p.table_hash();
  p.set_strategy(3, game::named::all_d(1));
  EXPECT_NE(p.table_hash(), h0);
}

TEST(Population, InterningSharesClassesAcrossEqualStrategies) {
  std::vector<game::Strategy> ss;
  for (int rep = 0; rep < 3; ++rep) {
    ss.emplace_back(game::named::all_c(1));
    ss.emplace_back(game::named::all_d(1));
  }
  const Population p(std::move(ss));
  EXPECT_EQ(p.class_count(), 2u);
  // Equal strategies share a class id; different ones never do.
  EXPECT_EQ(p.strategy_class(0), p.strategy_class(2));
  EXPECT_EQ(p.strategy_class(0), p.strategy_class(4));
  EXPECT_EQ(p.strategy_class(1), p.strategy_class(3));
  EXPECT_NE(p.strategy_class(0), p.strategy_class(1));
  // Refcounts cover every SSet.
  std::uint32_t members = 0;
  for (const StrategyClass& c : p.classes()) members += c.members;
  EXPECT_EQ(members, p.size());
}

TEST(Population, InterningTracksSetStrategy) {
  std::vector<game::Strategy> ss;
  ss.emplace_back(game::named::all_c(1));
  ss.emplace_back(game::named::all_d(1));
  ss.emplace_back(game::named::all_d(1));
  Population p(std::move(ss));
  EXPECT_EQ(p.class_count(), 2u);

  // Adoption: SSet 0 copies SSet 1's strategy — ALLC's class dies.
  p.set_strategy(0, p.strategy(1));
  EXPECT_EQ(p.class_count(), 1u);
  EXPECT_EQ(p.strategy_class(0), p.strategy_class(1));

  // Mutation to a brand-new strategy revives diversity; the freed slot is
  // recycled, so the class table never grows past peak diversity.
  const std::size_t slots = p.classes().size();
  p.set_strategy(2, game::named::tit_for_tat(1));
  EXPECT_EQ(p.class_count(), 2u);
  EXPECT_EQ(p.classes().size(), slots);
  EXPECT_NE(p.strategy_class(2), p.strategy_class(0));
  EXPECT_TRUE(p.classes()[p.strategy_class(2)].strategy ==
              game::named::tit_for_tat(1));
}

TEST(Population, InterningSurvivesSelfAssignment) {
  std::vector<game::Strategy> ss;
  ss.emplace_back(game::named::all_c(1));
  ss.emplace_back(game::named::all_c(1));
  Population p(std::move(ss));
  // Rewriting an SSet with its own current strategy must not disturb the
  // class table (intern happens before release).
  p.set_strategy(0, p.strategy(0));
  EXPECT_EQ(p.class_count(), 1u);
  EXPECT_EQ(p.strategy_class(0), p.strategy_class(1));
  EXPECT_EQ(p.classes()[p.strategy_class(0)].members, 2u);
}

TEST(Population, ClassHashMatchesStrategyHash) {
  util::Xoshiro256 rng(7);
  const auto p = Population::random_mixed(6, 2, rng);
  for (SSetId i = 0; i < p.size(); ++i) {
    const StrategyClass& c = p.classes()[p.strategy_class(i)];
    EXPECT_TRUE(c.strategy == p.strategy(i));
    EXPECT_EQ(c.hash, p.strategy(i).hash());
  }
}

// table_hash folds the interned class hashes; it must equal the fold over
// every SSet's own Strategy::hash(), whatever slots the churn recycled.
std::uint64_t per_strategy_fold(const Population& p) {
  std::uint64_t h = util::mix64(p.size());
  for (const auto& s : p.strategies()) h = util::mix64(h ^ s.hash());
  return h;
}

TEST(Population, TableHashEqualsPerStrategyFoldUnderChurn) {
  util::Xoshiro256 rng(11);
  struct Kind {
    const char* name;
    std::function<Population(SSetId)> make;
  };
  const std::vector<Kind> kinds = {
      {"pure", [&](SSetId n) { return Population::random_pure(n, 1, rng); }},
      {"mixed", [&](SSetId n) { return Population::random_mixed(n, 1, rng); }},
      {"nway pure",
       [&](SSetId n) { return Population::random_nway(n, 4, true, rng); }},
      {"nway mixed",
       [&](SSetId n) { return Population::random_nway(n, 4, false, rng); }},
  };
  for (const Kind& kind : kinds) {
    Population p = kind.make(8);
    ASSERT_EQ(p.table_hash(), per_strategy_fold(p)) << kind.name;
    int reused = 0;
    for (int step = 0; step < 600; ++step) {
      const auto i = static_cast<SSetId>(util::uniform_below(rng, p.size()));
      if (step % 2 == 0) {
        // Imitation: may free i's old class slot.
        const auto j = static_cast<SSetId>(util::uniform_below(rng, p.size()));
        p.set_strategy(i, p.strategy(j));
      } else {
        // A fresh strategy: interned into a recycled slot when one is free.
        std::vector<ClassId> free;
        for (ClassId c = 0; c < p.classes().size(); ++c) {
          if (p.classes()[c].members == 0) free.push_back(c);
        }
        p.set_strategy(i, kind.make(1).strategy(0));
        if (std::ranges::find(free, p.strategy_class(i)) != free.end()) {
          ++reused;
        }
      }
      ASSERT_EQ(p.table_hash(), per_strategy_fold(p))
          << kind.name << " step " << step;
    }
    EXPECT_GT(reused, 0) << kind.name << ": churn never recycled a slot";
  }
}

TEST(Population, MixedMemoryDepthsRejected) {
  std::vector<game::Strategy> strategies;
  strategies.emplace_back(game::named::all_c(1));
  strategies.emplace_back(game::named::all_c(2));
  EXPECT_THROW(Population{std::move(strategies)}, std::invalid_argument);
}

TEST(Population, EmptyRejected) {
  EXPECT_THROW(Population{std::vector<game::Strategy>{}},
               std::invalid_argument);
}

}  // namespace
}  // namespace egt::pop
