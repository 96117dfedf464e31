// The generation-plan wire codec (core/generation.hpp): the PaperBcast
// broadcast payload and the ft PLAN body.
#include <gtest/gtest.h>

#include "core/generation.hpp"
#include "core/wire.hpp"
#include "util/rng.hpp"

namespace egt::core {
namespace {

pop::GenerationPlan pc_and_mutation_plan() {
  util::Xoshiro256 rng(11);
  pop::GenerationPlan plan;
  plan.pc = pop::GenerationPlan::Pc{3, 7};
  plan.mutation =
      pop::GenerationPlan::Mutation{5, game::MixedStrategy::random(2, rng)};
  return plan;
}

TEST(GenerationPlanCodec, RoundTripsEveryField) {
  const pop::GenerationPlan plan = pc_and_mutation_plan();
  const pop::GenerationPlan back =
      decode_generation_plan(encode_generation_plan(plan));
  ASSERT_TRUE(back.pc.has_value());
  EXPECT_EQ(back.pc->teacher, 3u);
  EXPECT_EQ(back.pc->learner, 7u);
  EXPECT_FALSE(back.moran);
  ASSERT_TRUE(back.mutation.has_value());
  EXPECT_EQ(back.mutation->target, 5u);
  EXPECT_TRUE(back.mutation->strategy == plan.mutation->strategy);

  pop::GenerationPlan moran;
  moran.moran = true;
  const pop::GenerationPlan quiet_back =
      decode_generation_plan(encode_generation_plan(moran));
  EXPECT_TRUE(quiet_back.moran);
  EXPECT_FALSE(quiet_back.pc || quiet_back.mutation);
}

TEST(GenerationPlanCodec, ByteLayoutIsPinned) {
  // flags are single bytes, ids and the payload length little u32s: the
  // broadcast byte counts of the traffic tests depend on this layout.
  EXPECT_EQ(encode_generation_plan(pop::GenerationPlan{}).size(), 3u);
  const pop::GenerationPlan plan = pc_and_mutation_plan();
  const auto payload = plan.mutation->strategy.serialize();
  const auto wire = encode_generation_plan(plan);
  ASSERT_EQ(wire.size(), 1 + 8 + 1 + 1 + 4 + 4 + payload.size());
  EXPECT_EQ(std::to_integer<int>(wire[0]), 1);
  EXPECT_EQ(std::to_integer<int>(wire[9]), 0);
  EXPECT_EQ(std::to_integer<int>(wire[10]), 1);
}

TEST(GenerationPlanCodec, RejectsEveryTruncationAndATrailingByte) {
  const auto wire = encode_generation_plan(pc_and_mutation_plan());
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const std::vector<std::byte> prefix(wire.begin(),
                                        wire.begin() + static_cast<long>(n));
    EXPECT_THROW(decode_generation_plan(prefix), CheckpointError)
        << "prefix of " << n << " bytes";
  }
  auto longer = wire;
  longer.push_back(std::byte{0});
  EXPECT_THROW(decode_generation_plan(longer), CheckpointError);
}

TEST(GenerationPlanCodec, RejectsAPlanWithBothUpdateRules) {
  // Nature draws a PC event or a Moran event, never both: the engines
  // read fitness only before a generation's first change, and a plan
  // breaking that rule never reaches them.
  auto wire = encode_generation_plan(pc_and_mutation_plan());
  wire[9] = std::byte{1};  // the Moran flag follows the PC pair
  EXPECT_THROW(decode_generation_plan(wire), CheckpointError);
}

}  // namespace
}  // namespace egt::core
