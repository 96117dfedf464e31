#include "pop/population_io.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "game/named.hpp"

namespace egt::pop {
namespace {

class PopulationIoTest : public ::testing::Test {
 protected:
  // One file per test and process: ctest -j runs every TEST as its own
  // process, so a shared name would collide.
  std::string path_ =
      ::testing::TempDir() + "egt_pop_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      "_" + std::to_string(::getpid()) + ".bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(PopulationIoTest, PureRoundTrip) {
  util::Xoshiro256 rng(5);
  const auto pop = Population::random_pure(17, 3, rng);
  save_population(pop, path_);
  const auto back = load_population(path_);
  ASSERT_EQ(back.size(), pop.size());
  EXPECT_EQ(back.table_hash(), pop.table_hash());
  for (SSetId i = 0; i < pop.size(); ++i) {
    ASSERT_TRUE(back.strategy(i) == pop.strategy(i)) << i;
  }
}

TEST_F(PopulationIoTest, MixedRoundTripPreservesProbabilitiesExactly) {
  util::Xoshiro256 rng(6);
  const auto pop = Population::random_mixed(9, 1, rng);
  save_population(pop, path_);
  const auto back = load_population(path_);
  for (SSetId i = 0; i < pop.size(); ++i) {
    const auto& a = pop.strategy(i).as_mixed();
    const auto& b = back.strategy(i).as_mixed();
    for (game::State s = 0; s < a.states(); ++s) {
      ASSERT_EQ(a.coop_prob(s), b.coop_prob(s));  // bitwise
    }
  }
}

TEST_F(PopulationIoTest, FitnessIsNotPersisted) {
  util::Xoshiro256 rng(7);
  auto pop = Population::random_pure(4, 1, rng);
  pop.set_fitness(2, 42.0);
  save_population(pop, path_);
  const auto back = load_population(path_);
  EXPECT_DOUBLE_EQ(back.fitness(2), 0.0);
}

TEST_F(PopulationIoTest, MemorySixStrategiesSurvive) {
  util::Xoshiro256 rng(8);
  const auto pop = Population::random_pure(3, 6, rng);
  save_population(pop, path_);
  EXPECT_EQ(load_population(path_).table_hash(), pop.table_hash());
}

TEST_F(PopulationIoTest, RejectsGarbageAndTruncation) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "this is not a population";
  }
  EXPECT_THROW((void)load_population(path_), std::invalid_argument);

  util::Xoshiro256 rng(9);
  save_population(Population::random_pure(8, 2, rng), path_);
  // Truncate the file in the middle of a record.
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<char> data(size / 2);
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  EXPECT_THROW((void)load_population(path_), std::invalid_argument);
}

TEST_F(PopulationIoTest, MissingFileThrows) {
  EXPECT_THROW((void)load_population(::testing::TempDir() + "egt_nope.bin"),
               std::invalid_argument);
}

}  // namespace
}  // namespace egt::pop
