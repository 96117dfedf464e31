// The serial reference engine: one process plays the whole population.
//
// Semantics of one generation (paper §IV):
//   1. Game dynamics: every SSet's agents play every other SSet's strategy;
//      fitness is the (scaled) sum of payoffs.
//   2. Population dynamics: Nature may schedule a pairwise-comparison event
//      (Fermi imitation on this generation's fitness) and a mutation event;
//      both apply before the next generation starts.
//
// The engine is the local transport of the shared generation step
// (core/generation.hpp); run_parallel and run_parallel_ft run the same step
// over messages and produce the exact same trajectory — tests assert
// bit-identical strategy tables, fitness, trace points and counters.
#pragma once

#include <memory>
#include <optional>

#include "core/config.hpp"
#include "pop/graph.hpp"
#include "core/fitness.hpp"
#include "core/generation.hpp"
#include "core/observer.hpp"
#include "core/trace.hpp"
#include "obs/metrics.hpp"
#include "pop/nature.hpp"
#include "pop/population.hpp"

namespace egt::core {

/// Construct the deterministic initial population for a config (shared by
/// the serial and parallel engines).
pop::Population make_initial_population(const SimConfig& config);

class Engine : private GenerationTransport {
 public:
  /// `metrics`, when given, receives per-phase timers (obs::phase) and
  /// event counters ("engine.*"); it must outlive the engine. Null runs
  /// without instrumentation (no timing overhead on the hot path).
  explicit Engine(const SimConfig& config,
                  obs::MetricsRegistry* metrics = nullptr);

  /// Mid-run state as captured by a checkpoint (core/checkpoint.hpp).
  struct RestoredState {
    std::uint64_t generation = 0;
    pop::NatureAgent::State nature;
    pop::Population population;
    /// The fitness block as saved. The engine adopts it instead of
    /// evaluating, so the resumed run is bit-identical to an undisturbed
    /// one — fitness, trajectory and engine.* counter growth. Without it
    /// (a hand-built starting state) the engine evaluates every pair.
    std::optional<BlockFitness::State> fitness = std::nullopt;
  };

  /// Resume from a checkpointed state. Throws CheckpointError when the
  /// fitness state's shape does not match this config's block.
  Engine(const SimConfig& config, RestoredState state,
         obs::MetricsRegistry* metrics = nullptr);

  /// The Nature Agent (checkpointing, inspection).
  const pop::NatureAgent& nature_agent() const noexcept { return nature_; }

  const SimConfig& config() const noexcept { return config_; }
  const pop::Population& population() const noexcept { return pop_; }
  std::uint64_t generation() const noexcept { return generation_; }
  const GenerationRecord& last_record() const noexcept { return record_; }

  /// Advance one generation.
  void step();

  /// Run `generations` more generations, reporting each to `observer`.
  void run(std::uint64_t generations, Observer* observer = nullptr);

  /// Run config().generations generations.
  void run_all(Observer* observer = nullptr) {
    run(config_.generations, observer);
  }

  /// Emit one TracePoint per generation to `sink` (null disables; no
  /// overhead on the hot path when unset). `sink` must outlive the engine.
  void set_trace(TraceSink* sink) noexcept { trace_ = sink; }

  /// Total ordered pairs evaluated so far (work accounting).
  std::uint64_t pairs_evaluated() const noexcept {
    return fitness_.pairs_evaluated();
  }

  /// Games actually played so far — <= pairs_evaluated(); the gap is the
  /// strategy-interned dedup saving (config.dedup, Analytic mode).
  std::uint64_t games_played() const noexcept override {
    return fitness_.games_played();
  }

  /// The interaction graph (null for the well-mixed population).
  const pop::InteractionGraph* interaction_graph() const noexcept {
    return graph_.get();
  }

  /// The fitness block (checkpointing its evaluation state).
  const BlockFitness& fitness_block() const noexcept { return fitness_; }

 private:
  Engine(const SimConfig& config, pop::Population pop,
         obs::MetricsRegistry* metrics);
  // GenerationTransport: the local transport — nothing travels.
  void play(std::uint64_t gen) override;
  std::array<double, 2> pc_fitness(const pop::GenerationPlan::Pc& pc) override {
    return {fitness_.fitness(pc.teacher), fitness_.fitness(pc.learner)};
  }
  std::span<const double> gather_fitness(const pop::GenerationPlan&,
                                         const GenerationDecision&) override {
    return fitness_.block();
  }
  void strategy_changed(pop::SSetId k, const pop::Population& pop,
                        std::uint64_t gen) override {
    fitness_.strategy_changed(k, pop, gen);
  }
  void finish(const GenerationOutcome&) override {
    ins_.account(fitness_, tally_);
  }

  SimConfig config_;
  pop::Population pop_;
  std::shared_ptr<const pop::InteractionGraph> graph_;  // before nature_
  pop::NatureAgent nature_;
  BlockFitness fitness_;
  std::uint64_t generation_ = 0;
  GenerationRecord record_;
  TraceSink* trace_ = nullptr;
  EngineInstruments ins_;  // all null when the engine runs unobserved
  WorkTally tally_;
};

/// Null for well-mixed configs; the shared graph otherwise.
std::shared_ptr<const pop::InteractionGraph> make_shared_graph(
    const SimConfig& config);

}  // namespace egt::core
