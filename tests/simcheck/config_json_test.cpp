#include "simcheck/config_json.hpp"

#include <gtest/gtest.h>

#include "game/spec/registry.hpp"
#include "simcheck/case.hpp"

namespace egt::simcheck {
namespace {

void expect_round_trip(const core::SimConfig& c) {
  const auto back = config_from_json_text(config_to_json(c));
  EXPECT_EQ(back.memory, c.memory);
  EXPECT_EQ(back.ssets, c.ssets);
  EXPECT_EQ(back.generations, c.generations);
  EXPECT_EQ(back.interaction.kind, c.interaction.kind);
  EXPECT_EQ(back.interaction.ring_k, c.interaction.ring_k);
  EXPECT_EQ(back.interaction.lattice_width, c.interaction.lattice_width);
  EXPECT_EQ(back.interaction.moore, c.interaction.moore);
  EXPECT_EQ(back.game.payoff.reward, c.game.payoff.reward);
  EXPECT_EQ(back.game.payoff.sucker, c.game.payoff.sucker);
  EXPECT_EQ(back.game.payoff.temptation, c.game.payoff.temptation);
  EXPECT_EQ(back.game.payoff.punishment, c.game.payoff.punishment);
  EXPECT_EQ(back.game.rounds, c.game.rounds);
  EXPECT_EQ(back.game.noise, c.game.noise);
  EXPECT_EQ(back.game.kind, c.game.kind);
  EXPECT_EQ(back.game.display_name, c.game.display_name);
  EXPECT_EQ(back.game.actions, c.game.actions);
  EXPECT_EQ(back.game.play, c.game.play);
  EXPECT_EQ(back.game.row_payoff, c.game.row_payoff);
  EXPECT_EQ(back.game.col_payoff, c.game.col_payoff);
  EXPECT_EQ(back.game.pgg_r, c.game.pgg_r);
  EXPECT_EQ(back.game.pgg_cost, c.game.pgg_cost);
  EXPECT_EQ(back.game.pgg_k, c.game.pgg_k);
  EXPECT_EQ(back.pc_rate, c.pc_rate);
  EXPECT_EQ(back.mutation_rate, c.mutation_rate);
  EXPECT_EQ(back.beta, c.beta);
  EXPECT_EQ(back.require_teacher_better, c.require_teacher_better);
  EXPECT_EQ(back.update_rule, c.update_rule);
  EXPECT_EQ(back.space, c.space);
  EXPECT_EQ(back.mutation_kernel, c.mutation_kernel);
  EXPECT_EQ(back.mutation_bits, c.mutation_bits);
  EXPECT_EQ(back.mutation_sigma, c.mutation_sigma);
  EXPECT_EQ(back.fitness_mode, c.fitness_mode);
  EXPECT_EQ(back.fitness_scale, c.fitness_scale);
  EXPECT_EQ(back.lookup, c.lookup);
  EXPECT_EQ(back.comm_pattern, c.comm_pattern);
  EXPECT_EQ(back.seed, c.seed);
  EXPECT_EQ(back.threads, c.threads);
  EXPECT_EQ(back.dedup, c.dedup);
}

TEST(ConfigJson, DefaultConfigRoundTrips) { expect_round_trip({}); }

TEST(ConfigJson, NonDefaultFieldsRoundTrip) {
  core::SimConfig c;
  c.memory = 3;
  c.ssets = 123;
  c.generations = 98765;
  c.interaction.kind = core::InteractionSpec::Kind::Lattice2D;
  c.interaction.lattice_width = 4;
  c.interaction.moore = true;
  c.game.rounds = 17;
  c.game.noise = 0.0625;
  c.pc_rate = 0.75;
  c.mutation_rate = 0.125;
  c.beta = 2.5;
  c.require_teacher_better = true;
  c.space = pop::StrategySpace::Mixed;
  c.mutation_kernel = pop::MutationKernel::MixedGaussian;
  c.mutation_sigma = 0.2;
  c.fitness_mode = core::FitnessMode::SampledFrozen;
  c.fitness_scale = core::FitnessScale::Total;
  c.lookup = game::LookupMode::LinearSearch;
  c.comm_pattern = core::CommPattern::ReplicatedNature;
  c.seed = 0xdeadbeefu;  // 32-bit: the documented JSON exactness range
  c.threads = 2;
  c.dedup = false;
  expect_round_trip(c);
}

TEST(ConfigJson, EveryRegistryPresetRoundTrips) {
  for (const auto& g : game::registry()) {
    core::SimConfig c;
    c.game = g;
    if (c.game.requires_memory0()) c.memory = 0;
    expect_round_trip(c);
  }
}

TEST(ConfigJson, DefaultIpdStaysByteStable) {
  // v2 repro compatibility: the wire v3 game fields are emitted only when
  // they differ from the IPD defaults, so a default config's game object
  // must not mention any of them.
  const std::string json = config_to_json(core::SimConfig{});
  // ("kind" can't be probed this way: the interaction object uses it too.)
  for (const char* key :
       {"\"name\"", "\"actions\"", "\"play\"", "\"row_payoff\"",
        "\"col_payoff\"", "\"pgg_r\"", "\"public_goods\""}) {
    EXPECT_EQ(json.find(key), std::string::npos) << key;
  }
}

TEST(ConfigJson, FuzzedConfigsRoundTrip) {
  for (std::uint64_t fuzz_seed = 1; fuzz_seed <= 40; ++fuzz_seed) {
    expect_round_trip(sample_case(fuzz_seed).config);
  }
}

TEST(ConfigJson, MissingKeysKeepDefaults) {
  const auto c =
      config_from_json_text(R"({"schema":"egt.sim_config/v1","ssets":7})");
  EXPECT_EQ(c.ssets, 7u);
  const core::SimConfig defaults;
  EXPECT_EQ(c.generations, defaults.generations);
  EXPECT_EQ(c.fitness_mode, defaults.fitness_mode);
}

TEST(ConfigJson, RejectsUnknownEnumName) {
  EXPECT_THROW(config_from_json_text(
                   R"({"schema":"egt.sim_config/v1","fitness_mode":"bogus"})"),
               std::runtime_error);
}

TEST(ConfigJson, RejectsWrongSchema) {
  EXPECT_THROW(config_from_json_text(R"({"schema":"egt.other/v1"})"),
               std::runtime_error);
}

}  // namespace
}  // namespace egt::simcheck
