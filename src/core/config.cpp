#include "core/config.hpp"

#include <cmath>
#include <sstream>

#include "util/check.hpp"

namespace egt::core {

void SimConfig::validate() const {
  EGT_REQUIRE_MSG(memory >= 0 && memory <= game::kMaxMemory,
                  "memory steps must be in [0, 6]");
  EGT_REQUIRE_MSG(ssets >= 2, "need at least two SSets");
  game.validate();
  if (game.requires_memory0()) {
    EGT_REQUIRE_MSG(memory == 0,
                    "n-way, one-shot and public-goods games are memory-0");
  }
  if (game.uses_nway()) {
    EGT_REQUIRE_MSG(mutation_kernel == pop::MutationKernel::UniformProbs ||
                        mutation_kernel == pop::MutationKernel::PureBitFlip,
                    "n-way games support the UniformProbs and PureBitFlip "
                    "mutation kernels only");
  }
  if (game.kind == game::GameKind::PublicGoods) {
    EGT_REQUIRE_MSG(game.pgg_k == 0 || game.pgg_k <= ssets,
                    "pgg_k cannot exceed the SSet count");
    if (interaction.structured()) {
      EGT_REQUIRE_MSG(game.pgg_k == 0,
                      "structured populations derive public-goods groups "
                      "from the graph; leave pgg_k at 0");
    }
  }
  EGT_REQUIRE_MSG(pc_rate >= 0.0 && pc_rate <= 1.0, "pc_rate out of [0,1]");
  EGT_REQUIRE_MSG(mutation_rate >= 0.0 && mutation_rate <= 1.0,
                  "mutation_rate out of [0,1]");
  EGT_REQUIRE_MSG(beta >= 0.0, "beta must be non-negative");
  if (fitness_mode != FitnessMode::Sampled) {
    // Cached modes keep a rows-by-ssets payoff matrix per rank.
    EGT_REQUIRE_MSG(ssets <= 16384,
                    "cached fitness modes support at most 16384 SSets");
  }
  // A row of ssets games must fit ExactSum's 2^63 (core/fitness.hpp); the
  // sum of all |entries| bounds a stage payoff and stays NaN if one is.
  double bound = std::abs(game.payoff.reward) + std::abs(game.payoff.sucker) +
                 std::abs(game.payoff.temptation) +
                 std::abs(game.payoff.punishment);
  for (const auto* table : {&game.row_payoff, &game.col_payoff}) {
    for (const double v : *table) bound += std::abs(v);
  }
  EGT_REQUIRE_MSG(bound * game.rounds * ssets < 0x1p62,
                  "payoffs too large for exact row sums (ssets x rounds x "
                  "sum of |payoff entries| must stay below 2^62)");
  switch (mutation_kernel) {
    case pop::MutationKernel::UniformProbs:
      break;
    case pop::MutationKernel::UShapedProbs:
    case pop::MutationKernel::MixedGaussian:
      EGT_REQUIRE_MSG(space == pop::StrategySpace::Mixed,
                      "this mutation kernel needs the mixed strategy space");
      break;
    case pop::MutationKernel::PureBitFlip:
      EGT_REQUIRE_MSG(space == pop::StrategySpace::Pure,
                      "PureBitFlip needs the pure strategy space");
      break;
  }
  EGT_REQUIRE_MSG(mutation_bits >= 1, "mutation_bits must be positive");
  EGT_REQUIRE_MSG(mutation_sigma > 0.0, "mutation_sigma must be positive");
  switch (interaction.kind) {
    case InteractionSpec::Kind::Complete:
      break;
    case InteractionSpec::Kind::Ring:
      EGT_REQUIRE_MSG(ssets >= 3 && interaction.ring_k >= 1 &&
                          2 * interaction.ring_k < ssets,
                      "ring interaction needs 1 <= k and 2k < ssets");
      break;
    case InteractionSpec::Kind::Lattice2D: {
      const auto w = interaction.lattice_width;
      EGT_REQUIRE_MSG(w >= 3 && ssets % w == 0 && ssets / w >= 3,
                      "lattice needs width >= 3 dividing ssets with "
                      "height >= 3");
      break;
    }
  }
  if (interaction.structured()) {
    EGT_REQUIRE_MSG(update_rule == pop::UpdateRule::PairwiseComparison,
                    "the Moran rule is defined for the well-mixed "
                    "population only");
  }
}

pop::NatureConfig SimConfig::nature_config(
    std::shared_ptr<const pop::InteractionGraph> graph) const {
  pop::NatureConfig nc;
  nc.graph = std::move(graph);
  nc.ssets = ssets;
  nc.memory = memory;
  nc.actions = game.uses_nway() ? game.actions : 2;
  nc.pc_rate = pc_rate;
  nc.mutation_rate = mutation_rate;
  nc.beta = beta;
  nc.require_teacher_better = require_teacher_better;
  nc.update_rule = update_rule;
  nc.space = space;
  nc.kernel = mutation_kernel;
  nc.bitflip_bits = mutation_bits;
  nc.gaussian_sigma = mutation_sigma;
  nc.seed = seed;
  return nc;
}

pop::InteractionGraph make_interaction_graph(const SimConfig& config) {
  switch (config.interaction.kind) {
    case InteractionSpec::Kind::Ring:
      return pop::InteractionGraph::ring(config.ssets,
                                         config.interaction.ring_k);
    case InteractionSpec::Kind::Lattice2D:
      return pop::InteractionGraph::lattice(
          config.interaction.lattice_width,
          config.ssets / config.interaction.lattice_width,
          config.interaction.moore);
    case InteractionSpec::Kind::Complete:
      break;
  }
  return pop::InteractionGraph::complete(config.ssets);
}

std::string SimConfig::summary() const {
  std::ostringstream os;
  os << "game=" << game.display_name << ", memory-" << memory << ", " << ssets
     << " SSets, " << generations
     << " generations, rounds=" << game.rounds << ", noise=" << game.noise
     << ", pc_rate=" << pc_rate << ", mu=" << mutation_rate
     << ", beta=" << beta << ", space="
     << (space == pop::StrategySpace::Pure ? "pure" : "mixed") << ", fitness="
     << (fitness_mode == FitnessMode::Sampled
             ? "sampled"
             : (fitness_mode == FitnessMode::SampledFrozen ? "sampled-frozen"
                                                           : "analytic"))
     << ", seed=" << seed;
  return os.str();
}

}  // namespace egt::core
