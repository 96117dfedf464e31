// The serial reference engine: one process plays the whole population.
//
// Semantics of one generation (paper §IV):
//   1. Game dynamics: every SSet's agents play every other SSet's strategy;
//      fitness is the (scaled) sum of payoffs.
//   2. Population dynamics: Nature may schedule a pairwise-comparison event
//      (Fermi imitation on this generation's fitness) and a mutation event;
//      both apply before the next generation starts.
//
// The parallel engine (parallel_engine.hpp) produces the exact same
// trajectory; tests assert bit-identical strategy tables and fitness.
#pragma once

#include <memory>

#include "core/config.hpp"
#include "pop/graph.hpp"
#include "core/fitness.hpp"
#include "core/observer.hpp"
#include "core/trace.hpp"
#include "obs/metrics.hpp"
#include "pop/nature.hpp"
#include "pop/population.hpp"

namespace egt::core {

/// Construct the deterministic initial population for a config (shared by
/// the serial and parallel engines).
pop::Population make_initial_population(const SimConfig& config);

class Engine {
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
  };

  /// Resume from a checkpointed state.
  Engine(const SimConfig& config, RestoredState state,
         obs::MetricsRegistry* metrics = nullptr);

  /// The fitness block's evaluation state as captured alongside a
  /// checkpoint (serve/job_checkpoint.hpp): the per-row fitness and the
  /// cached payoff matrix (empty for Sampled / public goods).
  struct FitnessRestore {
    std::vector<double> fitness;
    std::vector<double> matrix;
  };

  /// Resume from a checkpointed state *and* a captured fitness block —
  /// unlike the plain restore constructor this performs no initial
  /// all-pairs evaluation, so engine.pairs_evaluated / games_played
  /// continue exactly where the saving run stopped: a preempted run
  /// resumed this way is bit-identical to an undisturbed one, counters
  /// included. Sampled mode ignores `fit` (begin_generation replays
  /// everything next step anyway).
  Engine(const SimConfig& config, RestoredState state, FitnessRestore fit,
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
  std::uint64_t games_played() const noexcept {
    return fitness_.games_played();
  }

  /// The interaction graph (null for the well-mixed population).
  const pop::InteractionGraph* interaction_graph() const noexcept {
    return graph_.get();
  }

  /// The fitness block (checkpointing its evaluation state).
  const BlockFitness& fitness_block() const noexcept { return fitness_; }

 private:
  /// Resolve phase histograms / event counters once (lock-free afterwards).
  void bind_metrics(obs::MetricsRegistry* metrics);
  /// Add fitness_.pairs_evaluated() / games_played() growth to the
  /// engine.pairs_evaluated and engine.games_played counters.
  void account_pairs();

  SimConfig config_;
  pop::Population pop_;
  std::shared_ptr<const pop::InteractionGraph> graph_;  // before nature_
  pop::NatureAgent nature_;
  BlockFitness fitness_;
  std::uint64_t generation_ = 0;
  GenerationRecord record_;
  TraceSink* trace_ = nullptr;

  // Instrumentation (all null when the engine runs unobserved).
  obs::Histogram* ph_game_play_ = nullptr;
  obs::Histogram* ph_plan_ = nullptr;
  obs::Histogram* ph_fitness_return_ = nullptr;
  obs::Histogram* ph_decision_ = nullptr;
  obs::Histogram* ph_apply_ = nullptr;
  obs::Counter* ct_generations_ = nullptr;
  obs::Counter* ct_pc_events_ = nullptr;
  obs::Counter* ct_adoptions_ = nullptr;
  obs::Counter* ct_moran_events_ = nullptr;
  obs::Counter* ct_mutations_ = nullptr;
  obs::Counter* ct_pairs_ = nullptr;
  obs::Counter* ct_games_ = nullptr;
  std::uint64_t pairs_accounted_ = 0;
  std::uint64_t games_accounted_ = 0;
};

/// Null for well-mixed configs; the shared graph otherwise.
std::shared_ptr<const pop::InteractionGraph> make_shared_graph(
    const SimConfig& config);

}  // namespace egt::core
