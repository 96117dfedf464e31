#include "core/engine.hpp"

#include "obs/tracer.hpp"
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

namespace {
pop::NatureConfig nature_config_with_graph(
    const SimConfig& config,
    std::shared_ptr<const pop::InteractionGraph> graph) {
  auto nc = config.nature_config();
  nc.graph = std::move(graph);
  return nc;
}
}  // namespace

void Engine::bind_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  ph_game_play_ = &metrics->histogram(obs::phase::kGamePlay);
  ph_plan_ = &metrics->histogram(obs::phase::kPlanBcast);
  ph_fitness_return_ = &metrics->histogram(obs::phase::kFitnessReturn);
  ph_decision_ = &metrics->histogram(obs::phase::kDecisionBcast);
  ph_apply_ = &metrics->histogram(obs::phase::kApplyUpdate);
  ct_generations_ = &metrics->counter("engine.generations");
  ct_pc_events_ = &metrics->counter("engine.pc_events");
  ct_adoptions_ = &metrics->counter("engine.adoptions");
  ct_moran_events_ = &metrics->counter("engine.moran_events");
  ct_mutations_ = &metrics->counter("engine.mutations");
  ct_pairs_ = &metrics->counter("engine.pairs_evaluated");
  ct_games_ = &metrics->counter("engine.games_played");
}

void Engine::account_pairs() {
  if (ct_pairs_ == nullptr) return;
  const std::uint64_t total = fitness_.pairs_evaluated();
  ct_pairs_->inc(total - pairs_accounted_);
  pairs_accounted_ = total;
  const std::uint64_t games = fitness_.games_played();
  ct_games_->inc(games - games_accounted_);
  games_accounted_ = games;
}

Engine::Engine(const SimConfig& config, obs::MetricsRegistry* metrics)
    : config_((config.validate(), config)),
      pop_(make_initial_population(config)),
      graph_(make_shared_graph(config)),
      nature_(nature_config_with_graph(config, graph_)),
      fitness_(config, 0, config.ssets, graph_, metrics) {
  bind_metrics(metrics);
  {
    // The initial all-pairs evaluation is game-dynamics work.
    obs::ScopedTimer t(ph_game_play_);
    obs::TraceSpan span(obs::phase::kGamePlay, obs::kCatPhase);
    fitness_.initialize(pop_);
    span.set_arg("games", fitness_.games_played());
  }
  account_pairs();
}

Engine::Engine(const SimConfig& config, RestoredState state,
               obs::MetricsRegistry* metrics)
    : config_((config.validate(), config)),
      pop_(std::move(state.population)),
      graph_(make_shared_graph(config)),
      nature_(nature_config_with_graph(config, graph_)),
      fitness_(config, 0, config.ssets, graph_, metrics),
      generation_(state.generation) {
  EGT_REQUIRE_MSG(pop_.size() == config.ssets,
                  "checkpoint population size does not match the config");
  EGT_REQUIRE_MSG(pop_.memory() == config.memory,
                  "checkpoint memory depth does not match the config");
  nature_.restore_state(state.nature);
  bind_metrics(metrics);
  {
    obs::ScopedTimer t(ph_game_play_);
    fitness_.initialize(pop_);
  }
  account_pairs();
}

Engine::Engine(const SimConfig& config, RestoredState state, FitnessRestore fit,
               obs::MetricsRegistry* metrics)
    : config_((config.validate(), config)),
      pop_(std::move(state.population)),
      graph_(make_shared_graph(config)),
      nature_(nature_config_with_graph(config, graph_)),
      fitness_(config, 0, config.ssets, graph_, metrics),
      generation_(state.generation) {
  EGT_REQUIRE_MSG(pop_.size() == config.ssets,
                  "checkpoint population size does not match the config");
  EGT_REQUIRE_MSG(pop_.memory() == config.memory,
                  "checkpoint memory depth does not match the config");
  nature_.restore_state(state.nature);
  bind_metrics(metrics);
  // No initial evaluation: the cached modes adopt the captured block state
  // verbatim; Sampled recomputes everything at the next step()'s
  // begin_generation. Either way pairs_evaluated / games_played stay at
  // zero here — the saving run's totals travel with the job, not the
  // engine — so a resumed run's counter *growth* matches an undisturbed
  // run generation for generation.
  if (config_.fitness_mode != FitnessMode::Sampled) {
    fitness_.restore_state(std::move(fit.fitness), std::move(fit.matrix));
  }
  account_pairs();
}

void Engine::step() {
  obs::TraceSpan gen_span(obs::kGenerationSpan, obs::kCatEngine, "gen",
                          generation_);
  // 1. Game dynamics: this generation's fitness.
  {
    obs::ScopedTimer t(ph_game_play_);
    obs::TraceSpan span(obs::phase::kGamePlay, obs::kCatPhase);
    const std::uint64_t games_before = fitness_.games_played();
    fitness_.begin_generation(pop_, generation_);
    for (pop::SSetId i = 0; i < config_.ssets; ++i) {
      pop_.set_fitness(i, fitness_.fitness(i));
    }
    span.set_arg("games", fitness_.games_played() - games_before);
  }

  // 2. Population dynamics.
  record_ = GenerationRecord{};
  record_.generation = generation_;
  pop::GenerationPlan plan;
  {
    // Serial twin of the parallel engine's plan broadcast: Nature decides
    // what happens this generation.
    obs::ScopedTimer t(ph_plan_);
    obs::TraceSpan span(obs::phase::kPlanBcast, obs::kCatPhase);
    plan = nature_.plan_generation(&pop_);
  }

  if (plan.pc) {
    if (ct_pc_events_ != nullptr) ct_pc_events_->inc();
    GenerationRecord::PcOutcome out;
    out.teacher = plan.pc->teacher;
    out.learner = plan.pc->learner;
    double teacher_fitness, learner_fitness;
    {
      // Serial twin of the owners' fitness return.
      obs::ScopedTimer t(ph_fitness_return_);
      obs::TraceSpan span(obs::phase::kFitnessReturn, obs::kCatPhase);
      teacher_fitness = fitness_.fitness(out.teacher);
      learner_fitness = fitness_.fitness(out.learner);
    }
    {
      obs::ScopedTimer t(ph_decision_);
      obs::TraceSpan span(obs::phase::kDecisionBcast, obs::kCatPhase);
      out.adopted = nature_.decide_adoption(teacher_fitness, learner_fitness);
    }
    if (out.adopted) {
      if (ct_adoptions_ != nullptr) ct_adoptions_->inc();
      obs::ScopedTimer t(ph_apply_);
      obs::TraceSpan span(obs::phase::kApplyUpdate, obs::kCatPhase);
      pop_.set_strategy(out.learner, pop_.strategy(out.teacher));
      fitness_.strategy_changed(out.learner, pop_, generation_);
    }
    record_.pc = out;
  }

  if (plan.moran) {
    if (ct_moran_events_ != nullptr) ct_moran_events_->inc();
    pop::MoranPick pick;
    {
      // The Moran rule's whole-vector selection is the decision step.
      obs::ScopedTimer t(ph_decision_);
      obs::TraceSpan span(obs::phase::kDecisionBcast, obs::kCatPhase);
      pick = nature_.select_moran(fitness_.block());
    }
    GenerationRecord::PcOutcome out;
    out.teacher = pick.reproducer;
    out.learner = pick.dying;
    out.adopted = pick.is_change();
    if (pick.is_change()) {
      obs::ScopedTimer t(ph_apply_);
      obs::TraceSpan span(obs::phase::kApplyUpdate, obs::kCatPhase);
      pop_.set_strategy(pick.dying, pop_.strategy(pick.reproducer));
      fitness_.strategy_changed(pick.dying, pop_, generation_);
    }
    record_.pc = out;
    record_.was_moran = true;
  }

  if (plan.mutation) {
    if (ct_mutations_ != nullptr) ct_mutations_->inc();
    obs::ScopedTimer t(ph_apply_);
    obs::TraceSpan span(obs::phase::kApplyUpdate, obs::kCatPhase);
    pop_.set_strategy(plan.mutation->target, plan.mutation->strategy);
    fitness_.strategy_changed(plan.mutation->target, pop_, generation_);
    record_.mutation = plan.mutation->target;
  }

  ++generation_;
  if (ct_generations_ != nullptr) ct_generations_->inc();
  account_pairs();

  if (trace_ != nullptr) {
    TracePoint point;
    point.generation = record_.generation;
    point.nature = nature_.save_state();
    if (record_.pc) {
      (record_.was_moran ? point.moran : point.pc) = true;
      (record_.was_moran ? point.reproducer : point.teacher) =
          record_.pc->teacher;
      (record_.was_moran ? point.dying : point.learner) = record_.pc->learner;
      point.adopted = record_.pc->adopted;
    }
    if (record_.mutation) {
      point.mutated = true;
      point.mutation_target = *record_.mutation;
    }
    point.table_hash = pop_.table_hash();
    point.fitness_hash = hash_fitness(pop_.fitness());
    trace_->on_point(point);
  }
}

void Engine::run(std::uint64_t generations, Observer* observer) {
  for (std::uint64_t g = 0; g < generations; ++g) {
    step();
    if (observer != nullptr) observer->on_generation(pop_, record_);
  }
}

}  // namespace egt::core
