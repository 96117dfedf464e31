// Strategy-interned dedup and SSet-row tier: bit-identity against brute
// force is the whole contract, so every comparison here is exact (==), not
// approximate.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "core/fitness.hpp"
#include "game/named.hpp"
#include "pop/graph.hpp"
#include "pop/population.hpp"
#include "util/rng.hpp"

namespace egt::core {
namespace {

SimConfig analytic_config(pop::SSetId ssets, int memory) {
  SimConfig cfg;
  cfg.ssets = ssets;
  cfg.memory = memory;
  cfg.seed = 99;
  cfg.fitness_mode = FitnessMode::Analytic;
  return cfg;
}

pop::Population random_population(const SimConfig& cfg, bool mixed,
                                  std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return mixed ? pop::Population::random_mixed(cfg.ssets, cfg.memory, rng)
               : pop::Population::random_pure(cfg.ssets, cfg.memory, rng);
}

/// Exact (bitwise) equality of two fitness blocks.
void expect_blocks_identical(const BlockFitness& a, const BlockFitness& b) {
  ASSERT_EQ(a.block().size(), b.block().size());
  for (std::size_t i = 0; i < a.block().size(); ++i) {
    ASSERT_EQ(a.block()[i], b.block()[i]) << "row " << i;
  }
  const std::vector<double> ma = a.state().values;
  const std::vector<double> mb = b.state().values;
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i) {
    ASSERT_EQ(ma[i], mb[i]) << "cell " << i;
  }
}

/// Where and how a block under test evaluates: its row range, thread
/// pool and interaction graph.
struct Layout {
  const char* name;
  pop::SSetId begin = 0;
  pop::SSetId end = 24;  ///< all rows of the 24-SSet population
  unsigned threads = 0;
  bool ring = false;  ///< structured: a ring of 2 neighbours a side
};

// Stable test names: gtest would otherwise print the struct's raw bytes.
void PrintTo(const Layout& layout, std::ostream* os) { *os << layout.name; }

/// A strategy no SSet of `pop` plays and other than `avoid` (drawn from
/// seeded random populations), so interning it needs a class slot of its
/// own.
game::Strategy absent_strategy(const SimConfig& cfg,
                               const pop::Population& pop, bool mixed,
                               std::uint64_t seed,
                               const game::Strategy* avoid = nullptr) {
  for (std::uint64_t s = seed; s < seed + 1000; ++s) {
    game::Strategy cand = random_population(cfg, mixed, s).strategy(0);
    bool present = avoid != nullptr && cand == *avoid;
    for (const pop::StrategyClass& c : pop.classes()) {
      present = present || (c.members > 0 && c.strategy == cand);
    }
    if (!present) return cand;
  }
  ADD_FAILURE() << "no absent strategy found";
  return pop.strategy(0);
}

/// Replay the same randomized adoption/mutation sequence through a dedup
/// block and a brute-force block and demand bitwise agreement throughout.
/// A serial dedup twin pins games_played as thread-count-invariant. One
/// step kills a class and hands its recycled ClassId slot to a different
/// strategy, so nothing may be keyed on a stale class id.
void run_property_sequence(int memory, bool mixed, const Layout& layout) {
  SimConfig dedup_cfg = analytic_config(24, memory);
  dedup_cfg.threads = layout.threads;
  SimConfig brute_cfg = dedup_cfg;
  brute_cfg.dedup = false;
  SimConfig serial_cfg = analytic_config(24, memory);
  std::shared_ptr<const pop::InteractionGraph> graph;
  if (layout.ring) {
    graph = std::make_shared<const pop::InteractionGraph>(
        pop::InteractionGraph::ring(dedup_cfg.ssets, 2));
  }

  auto pop = random_population(dedup_cfg, mixed, 1000 + memory);
  // Seed some duplicates so dedup has classes to merge from the start.
  for (pop::SSetId i = 0; i < pop.size(); i += 3) {
    pop.set_strategy(i, pop.strategy(0));
  }

  BlockFitness with(dedup_cfg, layout.begin, layout.end, graph);
  BlockFitness without(brute_cfg, layout.begin, layout.end, graph);
  BlockFitness serial(serial_cfg, layout.begin, layout.end, graph);
  ASSERT_TRUE(with.dedup_active());
  ASSERT_FALSE(without.dedup_active());
  const auto change = [&](pop::SSetId k, game::Strategy s,
                          std::uint64_t gen) {
    pop.set_strategy(k, std::move(s));
    with.strategy_changed(k, pop, gen);
    without.strategy_changed(k, pop, gen);
    serial.strategy_changed(k, pop, gen);
    expect_blocks_identical(with, without);
    expect_blocks_identical(serial, without);
    ASSERT_EQ(with.pairs_evaluated(), without.pairs_evaluated());
    ASSERT_EQ(with.games_played(), serial.games_played());
  };
  with.initialize(pop);
  without.initialize(pop);
  serial.initialize(pop);
  expect_blocks_identical(with, without);
  // Same logical pair count; never more games than brute force.
  ASSERT_EQ(with.pairs_evaluated(), without.pairs_evaluated());
  ASSERT_LE(with.games_played(), without.games_played());
  ASSERT_EQ(with.games_played(), serial.games_played());

  util::Xoshiro256 rng(77 + memory);
  for (std::uint64_t gen = 1; gen <= 40; ++gen) {
    with.begin_generation(pop, gen);
    without.begin_generation(pop, gen);
    serial.begin_generation(pop, gen);
    const pop::SSetId target =
        static_cast<pop::SSetId>(util::uniform_below(rng, pop.size()));
    if (gen == 20) {
      // Class death and slot reuse: make `target` a singleton class, let
      // it die by adoption, then intern a different strategy elsewhere —
      // the freed slot is recycled (LIFO) for it.
      const pop::SSetId other = (target + 5) % pop.size();
      change(target, absent_strategy(dedup_cfg, pop, mixed, 7000), gen);
      const pop::ClassId dead = pop.strategy_class(target);
      const game::Strategy old = pop.strategy(target);
      change(target, pop.strategy((target + 1) % pop.size()), gen);
      change(other, absent_strategy(dedup_cfg, pop, mixed, 8000, &old), gen);
      ASSERT_EQ(pop.strategy_class(other), dead) << "slot was not recycled";
    } else if (util::uniform_below(rng, 2) == 0) {
      // Adoption: copy another SSet's strategy (drives convergence).
      const pop::SSetId teacher =
          static_cast<pop::SSetId>(util::uniform_below(rng, pop.size()));
      change(target, pop.strategy(teacher), gen);
    } else {
      // Mutation: fresh random strategy (drives divergence).
      change(target,
             random_population(dedup_cfg, mixed, 5000 + gen).strategy(target),
             gen);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FitnessDedup, PropertyPureMemory1) { run_property_sequence(1, false, {"full"}); }
TEST(FitnessDedup, PropertyPureMemory2) { run_property_sequence(2, false, {"full"}); }
TEST(FitnessDedup, PropertyPureMemory3) { run_property_sequence(3, false, {"full"}); }
TEST(FitnessDedup, PropertyMixedMemory1) { run_property_sequence(1, true, {"full"}); }
TEST(FitnessDedup, PropertyMixedMemory2) { run_property_sequence(2, true, {"full"}); }
TEST(FitnessDedup, PropertyMixedMemory3) { run_property_sequence(3, true, {"full"}); }

/// The same property over every block layout the engines use: a partial
/// row block (a parallel rank's), the thread pool over many rows ("sset3")
/// and over fewer rows than threads ("agent3": whole-block passes leave
/// threads idle, row rebuilds split pairs), and a structured graph
/// (within-call dedup only).
class FitnessDedupLayouts
    : public ::testing::TestWithParam<std::tuple<Layout, int, bool>> {};

TEST_P(FitnessDedupLayouts, BitIdenticalToBruteForce) {
  const auto& [layout, memory, mixed] = GetParam();
  run_property_sequence(memory, mixed, layout);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, FitnessDedupLayouts,
    ::testing::Combine(
        ::testing::Values(Layout{"partial", 5, 17},
                          Layout{"sset3", 0, 24, 3},
                          Layout{"agent3", 11, 13, 3},
                          Layout{"partial_sset3_agent3", 5, 17, 3},
                          Layout{"ring", 0, 24, 0, true},
                          Layout{"ring_partial_agent3", 5, 17, 3, true}),
        ::testing::Values(1, 2, 3), ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_m" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_mixed" : "_pure");
    });

TEST(FitnessDedup, ConvergedPopulationPlaysTenXFewerGames) {
  // The ISSUE acceptance scenario: 256 SSets collapsed onto <= 8 unique
  // strategies. Dedup must reproduce brute-force fitness bit-for-bit while
  // playing at least 10x fewer games.
  SimConfig dedup_cfg = analytic_config(256, 1);
  SimConfig brute_cfg = dedup_cfg;
  brute_cfg.dedup = false;

  std::vector<game::Strategy> reps;
  reps.push_back(game::named::all_c(1));
  reps.push_back(game::named::all_d(1));
  reps.push_back(game::named::tit_for_tat(1));
  reps.push_back(game::named::win_stay_lose_shift(1));
  util::Xoshiro256 rng(31);
  while (reps.size() < 8) {
    reps.push_back(
        pop::Population::random_pure(1, 1, rng).strategy(0));
  }
  std::vector<game::Strategy> table;
  table.reserve(256);
  for (pop::SSetId i = 0; i < 256; ++i) table.push_back(reps[i % 8]);
  const pop::Population pop(std::move(table));
  ASSERT_LE(pop.class_count(), 8u);

  BlockFitness with(dedup_cfg, 0, dedup_cfg.ssets);
  BlockFitness without(brute_cfg, 0, brute_cfg.ssets);
  with.initialize(pop);
  without.initialize(pop);
  expect_blocks_identical(with, without);
  ASSERT_EQ(with.pairs_evaluated(), without.pairs_evaluated());
  ASSERT_GT(without.games_played(), 0u);
  ASSERT_GE(without.games_played(), 10 * with.games_played())
      << "dedup played " << with.games_played() << " of "
      << without.games_played() << " brute-force games";
}

TEST(FitnessDedup, SampledModeNeverDedups) {
  SimConfig cfg = analytic_config(8, 1);
  cfg.fitness_mode = FitnessMode::Sampled;
  BlockFitness fit(cfg, 0, cfg.ssets);
  EXPECT_FALSE(fit.dedup_active());
  const auto pop = random_population(cfg, false, 3);
  fit.initialize(pop);
  // Every logical pair is an actual game.
  EXPECT_EQ(fit.games_played(), fit.pairs_evaluated());
}

TEST(FitnessDedup, StochasticMemory2PairsAreNotCached) {
  // Mixed memory-2 strategies miss both exact methods, so their payoff is
  // (gen_key, i, j)-keyed — dedup must leave them alone. Bit-identity with
  // brute force (checked via the property tests) plus games == pairs here
  // pins that down.
  SimConfig cfg = analytic_config(6, 2);
  const auto pop = random_population(cfg, true, 17);
  BlockFitness fit(cfg, 0, cfg.ssets);
  ASSERT_TRUE(fit.dedup_active());
  fit.initialize(pop);
  EXPECT_EQ(fit.games_played(), fit.pairs_evaluated());
}

TEST(FitnessDedup, SsetThreadsBitIdenticalToSerial) {
  for (const unsigned threads : {1u, 2u, 5u}) {
    SimConfig par_cfg = analytic_config(48, 1);
    par_cfg.threads = threads;
    SimConfig ser_cfg = par_cfg;
    ser_cfg.threads = 0;

    auto pop = random_population(par_cfg, true, 400);
    for (pop::SSetId i = 0; i < pop.size(); i += 2) {
      pop.set_strategy(i, pop.strategy(1));
    }
    BlockFitness par(par_cfg, 0, par_cfg.ssets);
    BlockFitness ser(ser_cfg, 0, ser_cfg.ssets);
    par.initialize(pop);
    ser.initialize(pop);
    expect_blocks_identical(par, ser);
    ASSERT_EQ(par.pairs_evaluated(), ser.pairs_evaluated());
    ASSERT_EQ(par.games_played(), ser.games_played());
  }
}

TEST(FitnessDedup, SsetThreadsBitIdenticalForSampledReplay) {
  SimConfig par_cfg = analytic_config(32, 1);
  par_cfg.fitness_mode = FitnessMode::Sampled;
  par_cfg.space = pop::StrategySpace::Mixed;
  par_cfg.threads = 3;
  SimConfig ser_cfg = par_cfg;
  ser_cfg.threads = 0;

  const auto pop = random_population(par_cfg, true, 88);
  BlockFitness par(par_cfg, 0, par_cfg.ssets);
  BlockFitness ser(ser_cfg, 0, ser_cfg.ssets);
  par.initialize(pop);
  ser.initialize(pop);
  for (std::uint64_t gen = 1; gen < 5; ++gen) {
    par.begin_generation(pop, gen);
    ser.begin_generation(pop, gen);
    expect_blocks_identical(par, ser);
  }
}

TEST(FitnessDedup, RestoreStateRoundTripsCache) {
  // The payoff matrix is the whole dedup state: a block restored from its
  // State (the matrix) alone reuses values exactly like its source.
  SimConfig cfg = analytic_config(16, 1);
  auto pop = random_population(cfg, false, 12);
  for (pop::SSetId i = 0; i < pop.size(); i += 2) {
    pop.set_strategy(i, pop.strategy(0));
  }
  BlockFitness source(cfg, 0, cfg.ssets);
  source.initialize(pop);

  BlockFitness restored(cfg, 0, cfg.ssets);
  restored.restore(source.state());
  expect_blocks_identical(restored, source);
  // A change into a live class costs zero fresh games: the new column and
  // row are read from the other members of that class.
  const std::uint64_t source_before = source.games_played();
  pop.set_strategy(3, pop.strategy(0));
  restored.strategy_changed(3, pop, 7);
  source.strategy_changed(3, pop, 7);
  expect_blocks_identical(restored, source);
  EXPECT_EQ(restored.games_played(), 0u);
  EXPECT_EQ(source.games_played(), source_before);
}

TEST(FitnessDedup, SerialEngineTrajectoryUnchangedByDedup) {
  // Whole-engine bit-identity: generations of PC/Moran/mutation dynamics
  // produce the same population with and without dedup.
  SimConfig cfg = analytic_config(32, 1);
  cfg.generations = 80;
  cfg.pc_rate = 0.4;
  cfg.mutation_rate = 0.05;
  SimConfig brute = cfg;
  brute.dedup = false;

  Engine a(cfg);
  Engine b(brute);
  a.run(cfg.generations);
  b.run(cfg.generations);
  EXPECT_EQ(a.population().table_hash(), b.population().table_hash());
  for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
    ASSERT_EQ(a.population().fitness(i), b.population().fitness(i)) << i;
  }
  EXPECT_EQ(a.pairs_evaluated(), b.pairs_evaluated());
  EXPECT_LE(a.games_played(), b.games_played());
}

TEST(FitnessDedup, SerialEngineTrajectoryUnchangedBySsetThreads) {
  SimConfig cfg = analytic_config(32, 1);
  cfg.generations = 60;
  cfg.pc_rate = 0.4;
  cfg.mutation_rate = 0.05;
  SimConfig threaded = cfg;
  threaded.threads = 4;

  Engine a(cfg);
  Engine b(threaded);
  a.run(cfg.generations);
  b.run(cfg.generations);
  EXPECT_EQ(a.population().table_hash(), b.population().table_hash());
  for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
    ASSERT_EQ(a.population().fitness(i), b.population().fitness(i)) << i;
  }
  EXPECT_EQ(a.games_played(), b.games_played());
}

}  // namespace
}  // namespace egt::core

namespace egt::core {
namespace {

TEST(FitnessDedup, ShippedSourceRowCopiesTheLearnerRow) {
  // The ft adoption path: the teacher's row lives in another block, so
  // the learner's block owns no member of the teacher's class. With the
  // teacher's row, read before the change, the learner's row is a copy:
  // same matrix, fitness and pairs as the replay, one game for
  // (learner, teacher), which no third class member mirrors here.
  const SimConfig cfg = analytic_config(24, 1);
  pop::Population pop = random_population(cfg, /*mixed=*/true, 5);
  const pop::SSetId teacher = 3, learner = 17;
  BlockFitness left(cfg, 0, 12), replay(cfg, 12, 24), copy(cfg, 12, 24);
  for (BlockFitness* b : {&left, &replay, &copy}) b->initialize(pop);
  const std::span<const double> shipped = left.source_row(teacher);
  const std::vector<double> row(shipped.begin(), shipped.end());
  ASSERT_EQ(row.size(), cfg.ssets);
  EXPECT_TRUE(replay.source_row(learner).size() == cfg.ssets);

  pop.set_strategy(learner, pop.strategy(teacher));
  const std::uint64_t replay_games = replay.games_played();
  const std::uint64_t copy_games = copy.games_played();
  const BlockFitness::SourceRow source{teacher, row};
  EXPECT_FALSE(left.strategy_changed(learner, pop, 1, &source))
      << "the learner's row is not in this block";
  EXPECT_FALSE(replay.strategy_changed(learner, pop, 1));
  EXPECT_TRUE(copy.strategy_changed(learner, pop, 1, &source));
  expect_blocks_identical(copy, replay);
  EXPECT_EQ(copy.pairs_evaluated(), replay.pairs_evaluated());
  EXPECT_EQ(copy.games_played() - copy_games, 1u);
  EXPECT_GT(replay.games_played() - replay_games, 1u);

  // A row of another class is never copied: the change below makes
  // SSet 20 a copy of SSet 5, not of the shipped row's SSet 3.
  pop.set_strategy(20, pop.strategy(5));
  const std::uint64_t before = copy.games_played();
  EXPECT_FALSE(copy.strategy_changed(20, pop, 2, &source));
  replay.strategy_changed(20, pop, 2);
  expect_blocks_identical(copy, replay);
  EXPECT_GT(copy.games_played() - before, 1u);
}

TEST(FitnessDedup, BlocksThatDoNotReuseRowsShipNone) {
  SimConfig cfg = analytic_config(12, 1);
  cfg.dedup = false;
  BlockFitness plain(cfg, 0, 12);
  plain.initialize(random_population(cfg, /*mixed=*/true, 5));
  EXPECT_TRUE(plain.source_row(4).empty());
  cfg.dedup = true;
  cfg.fitness_mode = FitnessMode::Sampled;
  BlockFitness sampled(cfg, 0, 12);
  EXPECT_TRUE(sampled.source_row(4).empty());
}

}  // namespace
}  // namespace egt::core
