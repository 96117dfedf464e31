#include "core/engine.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace egt::core {

pop::Population make_initial_population(const SimConfig& config) {
  util::Xoshiro256 rng(util::mix64(config.seed ^ 0x5851f42d4c957f2dULL));
  if (config.game.uses_nway()) {
    return pop::Population::random_nway(
        config.ssets, config.game.actions,
        config.space == pop::StrategySpace::Pure, rng);
  }
  if (config.space == pop::StrategySpace::Pure) {
    return pop::Population::random_pure(config.ssets, config.memory, rng);
  }
  return pop::Population::random_mixed(config.ssets, config.memory, rng);
}

std::shared_ptr<const pop::InteractionGraph> make_shared_graph(
    const SimConfig& config) {
  if (!config.interaction.structured()) return nullptr;
  return std::make_shared<const pop::InteractionGraph>(
      make_interaction_graph(config));
}

Engine::Engine(const SimConfig& config, pop::Population pop,
               obs::MetricsRegistry* metrics)
    : config_((config.validate(), config)),
      pop_(std::move(pop)),
      graph_(make_shared_graph(config)),
      nature_(config.nature_config(graph_)),
      fitness_(config, 0, config.ssets, graph_, metrics),
      ins_(metrics, /*events=*/true) {}

Engine::Engine(const SimConfig& config, obs::MetricsRegistry* metrics)
    : Engine(config, make_initial_population((config.validate(), config)),
             metrics) {
  ins_.initialize(fitness_, pop_, tally_);
}

Engine::Engine(const SimConfig& config, RestoredState state,
               obs::MetricsRegistry* metrics)
    : Engine(config, std::move(state.population), metrics) {
  EGT_REQUIRE_MSG(pop_.size() == config_.ssets,
                  "checkpoint population size does not match the config");
  EGT_REQUIRE_MSG(pop_.memory() == config_.memory,
                  "checkpoint memory depth does not match the config");
  generation_ = state.generation;
  nature_.restore_state(state.nature);
  if (state.fitness) {
    fitness_.restore(std::move(*state.fitness));
  } else {
    ins_.initialize(fitness_, pop_, tally_);
  }
}

void Engine::step() {
  const GenerationOutcome out = run_generation(
      {*this, pop_, ins_, &nature_, trace_, /*hash_fitness=*/true},
      generation_);
  record_ = GenerationRecord{};
  record_.generation = generation_;
  const GenerationDecision& d = out.decision;
  using Outcome = GenerationRecord::PcOutcome;
  if (out.plan.pc) {
    record_.pc = Outcome{out.plan.pc->teacher, out.plan.pc->learner, d.adopted};
  }
  if (out.plan.moran) {
    record_.pc = Outcome{d.pick.reproducer, d.pick.dying, d.pick.is_change()};
    record_.was_moran = true;
  }
  if (out.plan.mutation) record_.mutation = out.plan.mutation->target;
  ++generation_;
}

void Engine::play(std::uint64_t gen) {
  fitness_.begin_generation(pop_, gen);
  std::ranges::copy(fitness_.block(), pop_.mutable_fitness().begin());
}

void Engine::run(std::uint64_t generations, Observer* observer) {
  for (std::uint64_t g = 0; g < generations; ++g) {
    step();
    if (observer != nullptr) observer->on_generation(pop_, record_);
  }
}

}  // namespace egt::core
