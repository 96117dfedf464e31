#include "machine/costmodel.hpp"

#include <gtest/gtest.h>

namespace egt::machine {
namespace {

TEST(CostModel, DefaultTableIsMonotoneInMemoryForLinearSearch) {
  const auto t = default_round_costs();
  for (int m = 1; m <= 6; ++m) {
    EXPECT_GT(t.linear_ns[static_cast<std::size_t>(m)],
              t.linear_ns[static_cast<std::size_t>(m - 1)])
        << "memory " << m;
  }
}

TEST(CostModel, LinearSearchNeverBeatsIndexed) {
  const auto t = default_round_costs();
  for (int m = 0; m <= 6; ++m) {
    EXPECT_GE(t.ns(m, game::LookupMode::LinearSearch),
              t.ns(m, game::LookupMode::Indexed));
  }
}

TEST(CostModel, ScalesWithMachineComputeFactor) {
  const auto table = default_round_costs();
  const CostModel host(table, calibration_host());
  const CostModel bgl(table, bluegene_l());
  EXPECT_GT(bgl.round_seconds(1, game::LookupMode::Indexed),
            5.0 * host.round_seconds(1, game::LookupMode::Indexed));
}

TEST(CostModel, CalibrationProducesPositiveMonotoneCosts) {
  // Tiny sample: just verifies plumbing, not statistical quality.
  const auto t = calibrate_host(/*sample_rounds=*/40000, /*seed=*/3);
  for (int m = 0; m <= 6; ++m) {
    ASSERT_GT(t.indexed_ns[static_cast<std::size_t>(m)], 0.0);
    ASSERT_GT(t.linear_ns[static_cast<std::size_t>(m)], 0.0);
  }
  // Linear search across 4096 states must dwarf indexed lookup at mem-6.
  EXPECT_GT(t.linear_ns[6], 3.0 * t.indexed_ns[6]);
  // Every round is played: a cycle walker that skips rounds reads far
  // below a nanosecond per round.
  for (int m = 0; m <= 6; ++m) {
    EXPECT_GE(t.indexed_ns[static_cast<std::size_t>(m)], 1.0) << "memory " << m;
  }
}

TEST(StrategyTableBytes, PureAndMixedSizes) {
  // 1,024 memory-six pure strategies: 1024 * 4096 bits = 512 KiB.
  EXPECT_DOUBLE_EQ(strategy_table_bytes(1024, 6, true), 512.0 * 1024);
  // Mixed stores a double per state.
  EXPECT_DOUBLE_EQ(strategy_table_bytes(1024, 1, false), 1024.0 * 4 * 8);
}

TEST(StrategyTableBytes, PaperMemoryLimitStory) {
  // §VI-B.1: the state matrix must fit in the 512 MB BG/L node. A billion
  // SSets of memory-6 pure strategies would need ~512 GB — the replicated
  // table is only feasible because each node keeps the strategies it needs.
  EXPECT_GT(strategy_table_bytes(1u << 30, 6, true),
            bluegene_l().memory_per_node_bytes);
  EXPECT_LT(strategy_table_bytes(4096, 6, true),
            bluegene_l().memory_per_node_bytes);
}

TEST(MaxMemorySteps, BglSupportsMemorySixAtPaperScales) {
  // The paper ran memory-six with 1,024 SSets on BG/L — the table fits.
  EXPECT_EQ(max_memory_steps(bluegene_l(), 1024, true), 6);
  // Mixed (probabilistic) memory-six tables are 64x larger but still fit
  // at 1,024 SSets.
  EXPECT_EQ(max_memory_steps(bluegene_l(), 1024, false), 6);
  // A hundred million SSets of replicated pure tables no longer do.
  EXPECT_LT(max_memory_steps(bluegene_l(), 100'000'000, true), 6);
}

TEST(MaxMemorySteps, TinyNodeDegradesGracefully) {
  MachineSpec tiny = bluegene_l();
  tiny.memory_per_node_bytes = 100.0;  // 100 bytes
  EXPECT_EQ(max_memory_steps(tiny, 1024, true), -1);
  tiny.memory_per_node_bytes = 2048.0;
  EXPECT_GE(max_memory_steps(tiny, 1024, true), 0);
  EXPECT_LT(max_memory_steps(tiny, 1024, true), 3);
}

TEST(MachineSpecs, PresetsAreDistinctAndNamed) {
  EXPECT_EQ(bluegene_l().name, "BlueGene/L");
  EXPECT_EQ(bluegene_p().name, "BlueGene/P");
  EXPECT_GT(bluegene_l().compute_scale, bluegene_p().compute_scale);
  EXPECT_GT(bluegene_p().memory_per_node_bytes,
            bluegene_l().memory_per_node_bytes);
  EXPECT_EQ(spec_by_name("bgl").name, "BlueGene/L");
  EXPECT_EQ(spec_by_name("host").compute_scale, 1.0);
  EXPECT_THROW(spec_by_name("cray"), std::invalid_argument);
}

}  // namespace
}  // namespace egt::machine
