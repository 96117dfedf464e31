#include "simcheck/selftest.hpp"

#include <algorithm>
#include <vector>

#include "core/engine.hpp"
#include "core/fitness.hpp"
#include "simcheck/shrink.hpp"
#include "simcheck/trace.hpp"
#include "util/rng.hpp"

namespace egt::simcheck {

namespace {

// A copy of BlockFitness's well-mixed dedup row path with an injected
// off-by-one: the row sum loops `j + 1 < ssets`, silently dropping the
// last opponent column. Everything else mirrors the real path (a row
// evaluates each strategy-pure pair once per column ClassId, later rows of
// a class copy the first row of that class, row sums are exact),
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
      core::ExactSum sum;
      // BUG (deliberate): one opponent column short of the real loop.
      for (pop::SSetId j = 0; j + 1 < config_.ssets; ++j) {
        if (j == i) continue;
        sum.add(cell(i, j));
      }
      fitness_[i] = sum.value() * row_scale();
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

// The local transport over the broken copy: the same generation step the
// real engines run (core/generation.hpp), minus the instrumentation.
class BrokenDedupEngine final : public core::GenerationTransport {
 public:
  explicit BrokenDedupEngine(const core::SimConfig& config)
      : pop(core::make_initial_population(config)),
        nature(config.nature_config()),
        fit_(config) {
    fit_.recompute_all(pop, 0);
  }

  void play(std::uint64_t) override {
    std::ranges::copy(fit_.all(), pop.mutable_fitness().begin());
  }
  std::uint64_t games_played() const override { return 0; }
  std::array<double, 2> pc_fitness(const pop::GenerationPlan::Pc& pc) override {
    return {fit_.fitness(pc.teacher), fit_.fitness(pc.learner)};
  }
  std::span<const double> gather_fitness() override { return fit_.all(); }
  void strategy_changed(pop::SSetId, const pop::Population&,
                        std::uint64_t) override {
    changed_ = true;
  }
  void finish(const core::GenerationOutcome& out) override {
    // Analytic values are generation-independent, so a full recompute
    // equals the real engine's incremental refresh — except for the bug.
    if (changed_) fit_.recompute_all(pop, out.decision.gen);
    changed_ = false;
  }

  pop::Population pop;
  pop::NatureAgent nature;

 private:
  BrokenDedupFitness fit_;
  bool changed_ = false;
};

}  // namespace

EngineOutcome run_broken_dedup(const core::SimConfig& config) {
  EngineOutcome out;
  config.validate();
  BrokenDedupEngine engine(config);
  const core::EngineInstruments unobserved;
  TraceRecorder rec;
  const core::GenerationContext ctx{engine, engine.pop, unobserved,
                                    &engine.nature, &rec, true};
  for (std::uint64_t gen = 0; gen < config.generations; ++gen) {
    core::run_generation(ctx, gen);
  }
  out.trace = rec.contiguous_points();
  out.table_hash = engine.pop.table_hash();
  const auto final_fit = engine.pop.fitness();
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
