// The Nature Agent (paper §IV-E): the master that schedules pairwise
// comparison (PC) learning and random mutation, decides adoptions via the
// Fermi rule, and bookkeeps strategy assignments.
//
// The agent is deliberately engine-agnostic: both the serial reference
// engine and rank 0 of the parallel engine drive the *same* NatureAgent
// with the same seed, which is what makes their trajectories bit-identical.
//
// Event draw order per generation (fixed contract, relied on by tests):
//   1. u ~ U[0,1): PC event iff u < pc_rate; if so, draw teacher, then
//      learner (resampled until distinct).
//   2. u ~ U[0,1): mutation event iff u < mutation_rate; if so, draw the
//      target SSet, then generate the replacement strategy.
//   3. If a PC event fired: one more u for the Fermi adoption decision
//      (drawn in decide_adoption, after fitness values are known).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "game/strategy.hpp"
#include "pop/fermi.hpp"
#include "pop/graph.hpp"
#include "pop/population.hpp"
#include "util/rng.hpp"

namespace egt::pop {

/// What kind of strategies mutation introduces.
enum class StrategySpace { Pure, Mixed };

/// How mutation generates the replacement strategy.
enum class MutationKernel {
  /// Fresh strategy, each cooperation probability uniform on [0, 1]
  /// (pure space: uniform random bits) — the paper's gen_new_strat().
  UniformProbs,
  /// Fresh strategy with U-shaped (arcsine / Beta(1/2,1/2)) probabilities:
  /// mass near 0 and 1, so near-deterministic rules like WSLS are actually
  /// reachable — the distribution Nowak & Sigmund (1993) used for the
  /// study the paper's Fig. 2 validates against. Mixed space only.
  UShapedProbs,
  /// Local search in pure space: flip `bitflip_bits` random positions of
  /// the target SSet's *current* strategy.
  PureBitFlip,
  /// Local search in mixed space: add N(0, gaussian_sigma) to each
  /// cooperation probability of the current strategy, clamped to [0, 1].
  MixedGaussian,
};

/// True when the kernel derives the mutant from the current strategy (the
/// planner then needs to see the population).
constexpr bool kernel_is_local(MutationKernel k) noexcept {
  return k == MutationKernel::PureBitFlip ||
         k == MutationKernel::MixedGaussian;
}

/// How the population learns.
enum class UpdateRule {
  /// The paper's rule: compare two SSets, Fermi adoption (needs exactly
  /// two fitness values per event — the communication-friendly choice).
  PairwiseComparison,
  /// Exponential Moran birth-death: one SSet reproduces with probability
  /// proportional to exp(beta * fitness) and its strategy replaces a
  /// uniformly chosen SSet. Needs the *whole* fitness vector per event —
  /// the ablation showing why the paper's Nature Agent exchanges pairs.
  Moran,
};

struct NatureConfig {
  SSetId ssets = 0;
  int memory = 1;
  /// Action count of the game. 2 = the classic binary machinery (pure /
  /// mixed memory-n strategies); >= 3 = n-way games, where mutation
  /// generates NWayStrategy values (memory must be 0, and only the
  /// UniformProbs / PureBitFlip kernels apply: one-hot actions in the pure
  /// space, Dirichlet(1) simplex points in the mixed space).
  std::uint32_t actions = 2;
  double pc_rate = 0.1;         ///< paper §V-C (0.01 in the scaling studies)
  double mutation_rate = 0.05;  ///< paper's mu
  double beta = 1.0;            ///< Fermi selection intensity
  /// Paper's pseudocode only lets learners adopt strictly better teachers;
  /// the cited PC literature applies the Fermi probability unconditionally.
  /// Default follows the literature; set true for the paper's gate.
  bool require_teacher_better = false;
  StrategySpace space = StrategySpace::Pure;
  UpdateRule update_rule = UpdateRule::PairwiseComparison;
  MutationKernel kernel = MutationKernel::UniformProbs;
  /// PureBitFlip: positions flipped per mutation.
  std::uint32_t bitflip_bits = 1;
  /// MixedGaussian: perturbation standard deviation.
  double gaussian_sigma = 0.1;
  /// Population structure. Null or complete = well-mixed (the paper):
  /// teacher and learner drawn uniformly. Structured: the learner is drawn
  /// uniformly and the teacher uniformly among its neighbours.
  std::shared_ptr<const InteractionGraph> graph;
  std::uint64_t seed = 1234;
};

/// The events Nature scheduled for one generation.
struct GenerationPlan {
  struct Pc {
    SSetId teacher = 0;
    SSetId learner = 0;
  };
  std::optional<Pc> pc;

  /// A Moran birth-death event is due this generation (UpdateRule::Moran):
  /// the actors are only resolved once the fitness vector is available
  /// (select_moran).
  bool moran = false;

  struct Mutation {
    SSetId target = 0;
    game::Strategy strategy;
  };
  std::optional<Mutation> mutation;

  bool quiet() const noexcept { return !pc && !moran && !mutation; }
};

/// Resolution of a Moran event.
struct MoranPick {
  SSetId reproducer = 0;
  SSetId dying = 0;
  bool is_change() const noexcept { return reproducer != dying; }
};

class NatureAgent {
 public:
  explicit NatureAgent(const NatureConfig& config);

  const NatureConfig& config() const noexcept { return config_; }

  /// Draw the event schedule of the next generation (see draw order above).
  /// Local mutation kernels (kernel_is_local) derive the mutant from the
  /// target's current strategy and therefore need the population; global
  /// kernels ignore it.
  GenerationPlan plan_generation(const Population* population = nullptr);

  /// Fermi adoption decision for a planned PC event. Must be called exactly
  /// once per planned PC (it consumes one RNG draw).
  bool decide_adoption(double teacher_fitness, double learner_fitness);

  /// Resolve a planned Moran event: reproducer sampled with weight
  /// exp(beta * fitness) (numerically stabilised softmax), dying SSet
  /// uniform. Consumes exactly two RNG draws. `fitness` must cover the
  /// whole population in SSet order.
  MoranPick select_moran(std::span<const double> fitness);

  /// Generations planned so far.
  std::uint64_t generations_planned() const noexcept { return planned_; }

  /// Checkpoint support: the agent's full mutable state.
  struct State {
    util::Xoshiro256::StateArray rng;
    std::uint64_t planned = 0;

    bool operator==(const State&) const = default;
  };
  State save_state() const noexcept { return {rng_.state(), planned_}; }
  void restore_state(const State& s) noexcept {
    rng_.set_state(s.rng);
    planned_ = s.planned;
  }

 private:
  game::Strategy random_strategy(SSetId target, const Population* population);

  NatureConfig config_;
  util::Xoshiro256 rng_;
  std::uint64_t planned_ = 0;
};

}  // namespace egt::pop
