#include "simcheck/case.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace egt::simcheck {
namespace {

core::SimConfig small_config() {
  core::SimConfig c;
  c.ssets = 6;
  c.generations = 10;
  c.game.rounds = 4;
  c.pc_rate = 0.6;
  c.mutation_rate = 0.25;
  c.seed = 4242;
  return c;
}

TEST(RunCase, SerialRestoreIsExactInEveryMode) {
  // The checkpoint carries the fitness block, so the split run must match
  // the reference strictly — table, fitness bits, trace and counters — in
  // every mode, including the frozen-sampling fall-through of stochastic
  // memory-2 Analytic pairs.
  for (const auto mode :
       {core::FitnessMode::Sampled, core::FitnessMode::SampledFrozen,
        core::FitnessMode::Analytic}) {
    for (const int memory : {1, 2}) {
      CaseSpec spec;
      spec.config = small_config();
      spec.config.fitness_mode = mode;
      spec.config.memory = memory;
      spec.config.space = pop::StrategySpace::Mixed;
      spec.config.game.noise = 0.05;
      spec.restore_at = 5;
      spec.engines = {EngineKind::SerialRestore};
      ASSERT_TRUE(normalize_spec(spec));
      ASSERT_EQ(spec.engines.size(), 1u) << "restore variant dropped";
      const auto result = run_case(spec);
      for (const auto& f : result.failures) {
        ADD_FAILURE() << "mode " << static_cast<int>(mode) << " memory "
                      << memory << ": " << f.what;
      }
    }
  }
}

TEST(RunCase, AllEnginesAgreeOnAFixedSpec) {
  CaseSpec spec;
  spec.config = small_config();
  spec.config.fitness_mode = core::FitnessMode::Sampled;
  spec.nranks = 3;
  spec.threads = 2;
  spec.restore_at = 4;
  spec.ft_checkpoint_every = 2;
  spec.engines = {EngineKind::Parallel, EngineKind::ParallelReplicated,
                  EngineKind::SerialThreads, EngineKind::SerialRestore,
                  EngineKind::ParallelFt};
  ASSERT_TRUE(normalize_spec(spec));
  const auto result = run_case(spec);
  for (const auto& f : result.failures) {
    ADD_FAILURE() << engine_kind_name(f.engine) << ": " << f.what;
  }
  EXPECT_TRUE(result.passed());
  EXPECT_EQ(result.outcomes.size(), 5u);
  ASSERT_TRUE(result.reference.ok);
  EXPECT_EQ(result.reference.trace.size(), spec.config.generations);
}

TEST(RunCase, FaultyFtOnCheckpointBoundaryStaysOnTrajectory) {
  CaseSpec spec;
  spec.config = small_config();
  spec.config.fitness_mode = core::FitnessMode::Analytic;
  spec.nranks = 3;
  spec.ft_checkpoint_every = 2;
  spec.kills = {{/*rank=*/1, /*generation=*/4}};
  spec.engines = {EngineKind::ParallelFtFaulty};
  ASSERT_TRUE(normalize_spec(spec));
  ASSERT_EQ(spec.engines.size(), 1u);
  const auto result = run_case(spec);
  for (const auto& f : result.failures) {
    ADD_FAILURE() << engine_kind_name(f.engine) << ": " << f.what;
  }
  EXPECT_TRUE(result.passed());
}

// CaseSpec has no equality operator; compare the fields that pin the draw
// (full config equality is covered by the JSON round-trip tests).
bool same_draw(const CaseSpec& a, const CaseSpec& b) {
  return a.config.ssets == b.config.ssets &&
         a.config.generations == b.config.generations &&
         a.config.seed == b.config.seed && a.nranks == b.nranks &&
         a.engines == b.engines;
}

TEST(SampleCase, IsDeterministicPerSeed) {
  EXPECT_TRUE(same_draw(sample_case(17), sample_case(17)));
  EXPECT_FALSE(same_draw(sample_case(17), sample_case(18)));
}

TEST(SampleCase, ProducesValidNormalizedSpecs) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    auto spec = sample_case(seed);
    ASSERT_FALSE(spec.engines.empty()) << "seed " << seed;
    EXPECT_NO_THROW(spec.config.validate()) << "seed " << seed;
    EXPECT_GE(spec.nranks, 1) << "seed " << seed;
    EXPECT_LE(static_cast<pop::SSetId>(spec.nranks), spec.config.ssets);
    if (spec.restore_at != 0) {
      EXPECT_LT(spec.restore_at, spec.config.generations);
    }
    for (const auto& k : spec.kills) {
      EXPECT_GE(k.rank, 1) << "master kills are failover-undefined";
      EXPECT_LT(k.rank, spec.nranks);
      ASSERT_GT(spec.ft_checkpoint_every, 0u);
      EXPECT_EQ(k.generation % spec.ft_checkpoint_every, 0u);
    }
  }
}

TEST(NormalizeSpec, RepairsOutOfRangeFields) {
  CaseSpec spec;
  spec.config = small_config();
  spec.config.ssets = 4;
  spec.nranks = 9;        // > ssets
  spec.restore_at = 99;   // >= generations
  spec.engines = {EngineKind::Parallel, EngineKind::Parallel,
                  EngineKind::SerialRestore};
  ASSERT_TRUE(normalize_spec(spec));
  EXPECT_LE(static_cast<pop::SSetId>(spec.nranks), spec.config.ssets);
  // Duplicate engine entries collapse; the restore variant needs a valid
  // split point and is either repaired or dropped.
  EXPECT_EQ(std::count(spec.engines.begin(), spec.engines.end(),
                       EngineKind::Parallel),
            1);
}

TEST(NormalizeSpec, DropsFrozenModeFaultyVariant) {
  CaseSpec spec;
  spec.config = small_config();
  spec.config.fitness_mode = core::FitnessMode::SampledFrozen;
  spec.nranks = 3;
  spec.ft_checkpoint_every = 2;
  spec.kills = {{1, 2}};
  spec.engines = {EngineKind::Parallel, EngineKind::ParallelFtFaulty};
  ASSERT_TRUE(normalize_spec(spec));
  EXPECT_EQ(std::count(spec.engines.begin(), spec.engines.end(),
                       EngineKind::ParallelFtFaulty),
            0);
}

}  // namespace
}  // namespace egt::simcheck
