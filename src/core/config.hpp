// Simulation configuration: one struct that fully determines a run
// (both the serial reference engine and the parallel engine consume it, and
// equal configs produce bit-identical trajectories).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "game/ipd.hpp"
#include "game/spec/gamespec.hpp"
#include "pop/graph.hpp"
#include "pop/nature.hpp"

namespace egt::core {

/// How per-pair payoffs are obtained each generation.
enum class FitnessMode {
  /// Re-play every game every generation with generation-keyed RNG streams —
  /// the paper's behaviour. O(ssets^2 * rounds) per generation.
  Sampled,
  /// Play a pair's game once and reuse the value until either strategy
  /// changes (then re-play with the change generation's stream). Exact for
  /// deterministic games; a frozen sample for stochastic ones.
  SampledFrozen,
  /// Exact expected payoffs: cycle detection for deterministic pure pairs,
  /// Markov-chain propagation for memory-one pairs (see game/markov.hpp),
  /// frozen sampling as a last resort for stochastic memory>=2 pairs.
  /// Cached across generations (expectations don't change until a strategy
  /// does).
  Analytic,
};

/// Scale of the fitness value fed to the Fermi rule.
enum class FitnessScale {
  /// Mean per-round, per-opponent payoff in [S, T] — keeps beta on the
  /// familiar scale of the PC literature. Default.
  PerRoundAverage,
  /// Raw summed payoff over all rounds and opponents (the paper's
  /// relative_fitness).
  Total,
};

/// How the parallel engine coordinates Nature with the compute ranks.
enum class CommPattern {
  /// Rank 0 is the Nature Agent and broadcasts the per-generation event
  /// plan (and mutated strategy payloads) — the paper's §V-B pattern.
  PaperBcast,
  /// Every rank replays Nature's RNG locally; only fitness values of the
  /// PC pair are exchanged (allreduce). An ablation that removes the
  /// per-generation broadcast.
  ReplicatedNature,
};

/// Population structure (DESIGN.md: spatial extension). Complete is the
/// paper's well-mixed population; Ring/Lattice restrict both game play and
/// imitation to graph neighbours.
struct InteractionSpec {
  enum class Kind { Complete, Ring, Lattice2D };
  Kind kind = Kind::Complete;
  std::uint32_t ring_k = 1;       ///< Ring: neighbours per side
  pop::SSetId lattice_width = 0;  ///< Lattice2D: width (height = ssets/width)
  bool moore = false;             ///< Lattice2D: 8-neighbourhood

  bool structured() const noexcept { return kind != Kind::Complete; }
};

struct SimConfig {
  int memory = 1;
  pop::SSetId ssets = 64;
  std::uint64_t generations = 1000;
  InteractionSpec interaction;

  /// The game the SSets play (DESIGN.md §10). Defaults to the paper's IPD;
  /// `game.payoff`, `game.rounds` and `game.noise` keep their historical
  /// IpdParams names so 2-action configs read the same as before. N-way
  /// matrix games and the public goods kind require memory == 0 (see
  /// GameSpec::requires_memory0).
  game::GameSpec game{};

  double pc_rate = 0.1;  ///< event rate (PC or Moran, per update_rule)
  double mutation_rate = 0.05;
  double beta = 1.0;
  bool require_teacher_better = false;
  pop::UpdateRule update_rule = pop::UpdateRule::PairwiseComparison;
  pop::StrategySpace space = pop::StrategySpace::Pure;
  pop::MutationKernel mutation_kernel = pop::MutationKernel::UniformProbs;
  std::uint32_t mutation_bits = 1;   ///< PureBitFlip: bits flipped
  double mutation_sigma = 0.1;       ///< MixedGaussian: std deviation

  FitnessMode fitness_mode = FitnessMode::Sampled;
  FitnessScale fitness_scale = FitnessScale::PerRoundAverage;
  game::LookupMode lookup = game::LookupMode::Indexed;
  CommPattern comm_pattern = CommPattern::PaperBcast;

  std::uint64_t seed = 1234;

  /// Worker threads in each fitness block's one pool (the paper's second
  /// level of parallelism; 0 = serial). Bit-identical for any value, in
  /// every engine: games are keyed streams and row sums are exact.
  unsigned threads = 0;

  /// Strategy-interned fitness dedup: whenever the pairwise payoff is a
  /// pure function of the strategy pair (Analytic mode where an exact
  /// method applies — see core/fitness.hpp), play one game per unique
  /// (class_i, class_j) pair and reuse the value for every SSet pair in
  /// those classes: O(u^2) games for u unique strategies instead of
  /// O(ssets^2). Fitness values and trajectories are bit-identical either
  /// way; only engine.games_played changes. Sampled mode is unaffected.
  bool dedup = true;

  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const;

  /// The Nature Agent's slice of this configuration, with the engine's
  /// interaction graph (make_interaction_graph; null = well mixed).
  pop::NatureConfig nature_config(
      std::shared_ptr<const pop::InteractionGraph> graph = nullptr) const;

  std::string summary() const;
};

/// Build the interaction graph this config describes. Deterministic, so
/// every rank reconstructs the identical structure locally.
pop::InteractionGraph make_interaction_graph(const SimConfig& config);

}  // namespace egt::core
