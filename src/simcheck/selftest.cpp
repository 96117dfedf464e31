#include "simcheck/selftest.hpp"

#include <vector>

#include "core/engine.hpp"
#include "core/fitness.hpp"
#include "simcheck/shrink.hpp"
#include "util/rng.hpp"

namespace egt::simcheck {

namespace {

// A copy of BlockFitness's well-mixed dedup row path with an injected
// off-by-one: the row sum loops `j + 1 < ssets`, silently dropping the
// last opponent column. Everything else mirrors the real path (a row
// evaluates each strategy-pure pair once per column ClassId, later rows of
// a class copy the first row of that class, sums walk j in fixed order),
// so the only divergence the harness can find is the bug itself.
class BrokenDedupFitness {
 public:
  explicit BrokenDedupFitness(const core::SimConfig& config)
      : config_(config),
        eval_(config),
        fitness_(config.ssets, 0.0),
        matrix_(static_cast<std::size_t>(config.ssets) * config.ssets, 0.0) {}

  void recompute_all(const pop::Population& pop, std::uint64_t gen_key) {
    constexpr pop::SSetId kNone = ~pop::SSetId{0};
    std::vector<pop::SSetId> first(pop.classes().size(), kNone);
    for (pop::SSetId i = 0; i < config_.ssets; ++i) {
      pop::SSetId& source = first[pop.strategy_class(i)];
      if (source == kNone || !config_.dedup) {
        evaluate_row(pop, i, gen_key);
        source = i;
      } else {
        copy_row(pop, i, source, gen_key);
      }
      double sum = 0.0;
      // BUG (deliberate): one opponent column short of the real loop.
      for (pop::SSetId j = 0; j + 1 < config_.ssets; ++j) {
        if (j == i) continue;
        sum += cell(i, j);
      }
      fitness_[i] = sum * row_scale();
    }
  }

  double fitness(pop::SSetId i) const { return fitness_[i]; }
  std::span<const double> all() const noexcept { return fitness_; }

 private:
  double row_scale() const noexcept {
    if (config_.fitness_scale == core::FitnessScale::Total) return 1.0;
    return 1.0 / (static_cast<double>(config_.ssets - 1) *
                  config_.game.rounds);
  }

  double& cell(pop::SSetId i, pop::SSetId j) {
    return matrix_[static_cast<std::size_t>(i) * config_.ssets + j];
  }

  void evaluate_row(const pop::Population& pop, pop::SSetId i,
                    std::uint64_t gen_key) {
    std::vector<double> by_class(pop.classes().size());
    std::vector<bool> have(pop.classes().size(), false);
    const auto& si = pop.strategy(i);
    for (pop::SSetId j = 0; j < config_.ssets; ++j) {
      if (j == i) continue;
      const auto& sj = pop.strategy(j);
      if (config_.dedup && eval_.strategy_pure(si, sj)) {
        const pop::ClassId c = pop.strategy_class(j);
        if (!have[c]) {
          by_class[c] = eval_.pair_payoff(si, sj);
          have[c] = true;
        }
        cell(i, j) = by_class[c];
      } else {
        cell(i, j) = eval_.payoff(pop, i, j, gen_key);
      }
    }
  }

  void copy_row(const pop::Population& pop, pop::SSetId i, pop::SSetId source,
                std::uint64_t gen_key) {
    const auto& si = pop.strategy(i);
    for (pop::SSetId j = 0; j < config_.ssets; ++j) {
      if (j == i) continue;
      cell(i, j) = eval_.strategy_pure(si, pop.strategy(j))
                       ? cell(source, j == source ? i : j)
                       : eval_.payoff(pop, i, j, gen_key);
    }
  }

  core::SimConfig config_;
  core::PairEvaluator eval_;
  std::vector<double> fitness_;
  std::vector<double> matrix_;  // ssets x ssets payoffs
};

}  // namespace

EngineOutcome run_broken_dedup(const core::SimConfig& config) {
  EngineOutcome out;
  config.validate();
  pop::Population pop = core::make_initial_population(config);
  pop::NatureAgent nature(config.nature_config());
  BrokenDedupFitness fit(config);
  fit.recompute_all(pop, 0);

  for (std::uint64_t gen = 0; gen < config.generations; ++gen) {
    // Mirror of core::Engine::step, minus the instrumentation.
    for (pop::SSetId i = 0; i < config.ssets; ++i) {
      pop.set_fitness(i, fit.fitness(i));
    }
    core::TracePoint point;
    point.generation = gen;
    bool changed = false;

    auto plan = nature.plan_generation(&pop);
    if (plan.pc) {
      point.pc = true;
      point.teacher = plan.pc->teacher;
      point.learner = plan.pc->learner;
      point.adopted = nature.decide_adoption(fit.fitness(plan.pc->teacher),
                                             fit.fitness(plan.pc->learner));
      if (point.adopted) {
        pop.set_strategy(plan.pc->learner, pop.strategy(plan.pc->teacher));
        changed = true;
      }
    }
    if (plan.moran) {
      const auto pick = nature.select_moran(fit.all());
      point.moran = true;
      point.reproducer = pick.reproducer;
      point.dying = pick.dying;
      point.adopted = pick.is_change();
      if (pick.is_change()) {
        pop.set_strategy(pick.dying, pop.strategy(pick.reproducer));
        changed = true;
      }
    }
    if (plan.mutation) {
      point.mutated = true;
      point.mutation_target = plan.mutation->target;
      pop.set_strategy(plan.mutation->target, plan.mutation->strategy);
      changed = true;
    }
    // Analytic values are generation-independent, so a full recompute
    // equals the real engine's incremental refresh — except for the bug.
    if (changed) fit.recompute_all(pop, gen);

    point.nature = nature.save_state();
    point.table_hash = pop.table_hash();
    point.fitness_hash = core::hash_fitness(pop.fitness());
    out.trace.push_back(point);
  }

  out.table_hash = pop.table_hash();
  const auto final_fit = pop.fitness();
  out.fitness.assign(final_fit.begin(), final_fit.end());
  out.counters_comparable = false;  // the fixture keeps no event counters
  out.ok = true;
  return out;
}

SelfTestResult run_self_test(std::uint64_t seed) {
  CaseSpec spec;
  spec.case_seed = seed;
  auto& c = spec.config;
  c.memory = 1;
  c.ssets = 12;
  c.generations = 24;
  c.space = pop::StrategySpace::Pure;
  c.mutation_kernel = pop::MutationKernel::UniformProbs;
  c.fitness_mode = core::FitnessMode::Analytic;
  c.dedup = true;
  c.game.rounds = 16;
  c.game.noise = 0.0;
  c.pc_rate = 0.7;
  c.mutation_rate = 0.3;
  c.beta = 1.0;
  // Keep the config seed in 32 bits so the repro JSON round-trips it
  // exactly (JSON numbers are doubles: integers are exact only to 2^53).
  c.seed = util::mix64(seed ^ 0xb40ced5e1f7e57ULL) >> 32;
  spec.engines = {EngineKind::SerialBrokenDedup};
  normalize_spec(spec);

  SelfTestResult result;
  const auto initial = run_case(spec);
  result.caught = !initial.passed();
  if (!result.caught) {
    result.detail = "injected off-by-one was NOT detected";
    return result;
  }
  auto shrunk = shrink_case(spec);
  result.shrunk = !shrunk.result.passed();
  result.final_ssets = shrunk.spec.config.ssets;
  result.final_generations = shrunk.spec.config.generations;
  result.repro = shrunk.spec;
  if (!shrunk.result.failures.empty()) {
    result.detail = shrunk.result.failures.front().what;
  }
  return result;
}

}  // namespace egt::simcheck
