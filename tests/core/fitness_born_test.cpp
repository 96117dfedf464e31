// Frozen samples from the population and each SSet's last-change
// generation: strategy_changed(k, pop, g) replays row k and column k on
// generation g's streams, so a block that lived through a run holds, for
// every pair, the sample keyed by the later of the two SSets' last changes
// (public goods: the latest change of all). initialize(pop, born) must
// rebuild that block bit for bit, matrix and fitness; a block initialized
// at key 0, as ft recovery once did without a fresh checkpoint, must not.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/fitness.hpp"
#include "game/spec/registry.hpp"
#include "util/rng.hpp"

namespace egt::core {
namespace {

/// A block under test: its config (mode, game, graph) and row range.
struct BornCase {
  const char* name;
  SimConfig config;
  pop::SSetId begin = 0;
  pop::SSetId end = 0;  ///< 0 = config.ssets
  bool blend_pure = false;  ///< draw half the strategies pure (dedup food)
};

void PrintTo(const BornCase& c, std::ostream* os) { *os << c.name; }

SimConfig ipd(FitnessMode mode, int memory, double noise) {
  SimConfig cfg;
  cfg.ssets = 16;
  cfg.memory = memory;
  cfg.space = pop::StrategySpace::Mixed;
  cfg.game.rounds = 24;
  cfg.game.noise = noise;
  cfg.fitness_mode = mode;
  cfg.seed = 314;
  return cfg;
}

SimConfig preset(const char* name, std::uint32_t pgg_k = 0) {
  SimConfig cfg;
  cfg.ssets = 16;
  cfg.game = *game::find_game(name);
  cfg.game.rounds = 12;
  cfg.game.noise = 0.05;
  cfg.game.pgg_k = pgg_k;
  if (cfg.game.requires_memory0()) cfg.memory = 0;
  cfg.space = pop::StrategySpace::Mixed;
  cfg.fitness_mode = FitnessMode::SampledFrozen;
  cfg.seed = 2718;
  return cfg;
}

SimConfig ring(SimConfig cfg) {
  cfg.interaction.kind = InteractionSpec::Kind::Ring;
  cfg.interaction.ring_k = 2;
  return cfg;
}

SimConfig lattice(SimConfig cfg) {
  cfg.interaction.kind = InteractionSpec::Kind::Lattice2D;
  cfg.interaction.lattice_width = 4;
  cfg.interaction.moore = true;
  return cfg;
}

SimConfig threads(SimConfig cfg, unsigned n) {
  cfg.threads = n;
  return cfg;
}

/// One strategy of `cfg`'s space, drawn from seed `s`; with `blend_pure`,
/// odd seeds draw a pure one.
game::Strategy draw(SimConfig cfg, std::uint64_t s, bool blend_pure) {
  cfg.seed = s;
  if (blend_pure && s % 2 == 1) cfg.space = pop::StrategySpace::Pure;
  return make_initial_population(cfg).strategy(0);
}

void expect_same_bits(const BlockFitness& want, const BlockFitness& got) {
  ASSERT_EQ(want.block().size(), got.block().size());
  for (std::size_t i = 0; i < want.block().size(); ++i) {
    ASSERT_EQ(want.block()[i], got.block()[i]) << "fitness of row " << i;
  }
  const std::vector<double> a = want.state().values;
  const std::vector<double> b = got.state().values;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "matrix cell " << i;
  }
}

class FitnessBorn : public ::testing::TestWithParam<BornCase> {};

TEST_P(FitnessBorn, InitializeAtBirthsEqualsTheLivedBlock) {
  const BornCase& c = GetParam();
  const SimConfig& cfg = c.config;
  const pop::SSetId end = c.end == 0 ? cfg.ssets : c.end;
  const auto graph = make_shared_graph(cfg);
  pop::Population pop = make_initial_population(cfg);
  for (pop::SSetId i = 0; i < pop.size(); ++i) {
    pop.set_strategy(i, draw(cfg, 100 + i, c.blend_pure));
  }
  std::vector<std::uint64_t> born(cfg.ssets, 0);

  BlockFitness lived(cfg, c.begin, end, graph);
  EXPECT_EQ(lived.dedup_active(), c.blend_pure);
  lived.initialize(pop);
  util::Xoshiro256 rng(7);
  for (std::uint64_t gen = 1; gen <= 60; ++gen) {
    lived.begin_generation(pop, gen);
    // Some generations change nothing, some two SSets (an adoption and a
    // mutation), occasionally the same one twice.
    const std::uint64_t changes = util::uniform_below(rng, 3);
    for (std::uint64_t n = 0; n < changes; ++n) {
      const auto k = static_cast<pop::SSetId>(
          util::uniform_below(rng, cfg.ssets));
      if (util::uniform_below(rng, 2) == 0) {
        const auto teacher = static_cast<pop::SSetId>(
            util::uniform_below(rng, cfg.ssets));
        pop.set_strategy(k, pop.strategy(teacher));
      } else {
        pop.set_strategy(k, draw(cfg, 1000 + gen * 3 + n, c.blend_pure));
      }
      lived.strategy_changed(k, pop, gen);
      born[k] = gen;
    }
    if (gen % 15 != 0) continue;
    BlockFitness fresh(cfg, c.begin, end, graph);
    fresh.initialize(pop, born);
    expect_same_bits(lived, fresh);
    if (::testing::Test::HasFatalFailure()) return;
  }

  // The test has teeth: the samples depend on their keys.
  BlockFitness at_zero(cfg, c.begin, end, graph);
  at_zero.initialize(pop);
  EXPECT_NE(at_zero.state().values, lived.state().values)
      << "a key-0 block equals the lived one: nothing here is frozen";
}

INSTANTIATE_TEST_SUITE_P(
    Frozen, FitnessBorn,
    ::testing::Values(
        BornCase{"frozen_m1_mixed",
                 ipd(FitnessMode::SampledFrozen, 1, 0.02)},
        BornCase{"frozen_m2_ring_threads3",
                 threads(ring(ipd(FitnessMode::SampledFrozen, 2, 0.02)), 3),
                 3, 13},
        BornCase{"frozen_m3_lattice_rows",
                 lattice(ipd(FitnessMode::SampledFrozen, 3, 0.05)), 4, 12},
        BornCase{"frozen_nway_rps_threads3",
                 threads(preset("rps"), 3)},
        BornCase{"frozen_pgg_global", preset("pgg")},
        BornCase{"frozen_pgg_k4_rows", preset("pgg", 4), 2, 9},
        BornCase{"frozen_pgg_ring", ring(preset("pgg"))},
        BornCase{"analytic_m2_fall_through_dedup",
                 ipd(FitnessMode::Analytic, 2, 0.0), 0, 0, true},
        BornCase{"analytic_m2_fall_through_dedup_ring_threads3",
                 threads(ring(ipd(FitnessMode::Analytic, 2, 0.0)), 3), 5,
                 16, true},
        BornCase{"analytic_m3_fall_through_dedup_lattice_rows",
                 lattice(ipd(FitnessMode::Analytic, 3, 0.0)), 0, 10,
                 true}),
    [](const ::testing::TestParamInfo<BornCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace egt::core
