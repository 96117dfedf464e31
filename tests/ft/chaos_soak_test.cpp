// A fixed slice of the chaos-soak seed space (tools/chaos_soak sweeps a
// much larger one in CI). Each seed derives a random fault schedule —
// master kills, cascades, drops, delays, in Sampled, SampledFrozen and
// fall-through Analytic configs — and the run must still reproduce the
// serial oracle bit for bit.
#include <gtest/gtest.h>

#include "ft/chaos.hpp"

namespace egt::ft {
namespace {

TEST(ChaosSoak, SchedulesAreDeterministic) {
  const auto a = make_chaos_schedule(7);
  const auto b = make_chaos_schedule(7);
  EXPECT_EQ(a.summary, b.summary);
  EXPECT_EQ(a.nranks, b.nranks);
  EXPECT_EQ(a.config.seed, b.config.seed);
  EXPECT_EQ(a.options.plan.kills().size(), b.options.plan.kills().size());
  EXPECT_NE(a.summary, make_chaos_schedule(8).summary)
      << "different seeds should (virtually always) differ";
}

TEST(ChaosSoak, SeedSpaceCoversFailoverAndRecovery) {
  // The schedule generator must actually exercise the machinery: across a
  // modest window of seeds there are master kills, cascades and frozen
  // samples to recover in both frozen modes — not just fault-free runs.
  int master_kills = 0, multi_kills = 0, frozen = 0, fall_through = 0,
      drops = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const auto s = make_chaos_schedule(seed);
    const auto& kills = s.options.plan.kills();
    for (const auto& k : kills) master_kills += k.rank == 0 ? 1 : 0;
    multi_kills += kills.size() > 1 ? 1 : 0;
    frozen += s.config.fitness_mode == core::FitnessMode::SampledFrozen &&
                      !kills.empty()
                  ? 1
                  : 0;
    fall_through += s.config.fitness_mode == core::FitnessMode::Analytic &&
                            s.config.memory == 2 && !kills.empty()
                        ? 1
                        : 0;
    drops += s.options.plan.drops().empty() ? 0 : 1;
  }
  EXPECT_GT(master_kills, 0) << "no schedule ever kills the Nature Agent";
  EXPECT_GT(multi_kills, 0);
  EXPECT_GT(frozen, 0);
  EXPECT_GT(fall_through, 0);
  EXPECT_GT(drops, 0);
}

class ChaosSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSeed, RecoversBitIdentical) {
  const auto outcome = run_chaos_schedule(GetParam());
  EXPECT_TRUE(outcome.ok) << outcome.detail;
}

INSTANTIATE_TEST_SUITE_P(Slice, ChaosSeed, ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace egt::ft
