#include "simcheck/config_json.hpp"

#include <sstream>
#include <stdexcept>

namespace egt::simcheck {

namespace {

using core::CommPattern;
using core::FitnessMode;
using core::FitnessScale;
using core::InteractionSpec;
using game::LookupMode;
using pop::MutationKernel;
using pop::StrategySpace;
using pop::UpdateRule;

// Enum <-> name tables. Names are part of the repro schema; add, never
// rename.
const char* name_of(FitnessMode m) {
  switch (m) {
    case FitnessMode::Sampled: return "sampled";
    case FitnessMode::SampledFrozen: return "sampled_frozen";
    case FitnessMode::Analytic: return "analytic";
  }
  return "sampled";
}
const char* name_of(FitnessScale s) {
  return s == FitnessScale::Total ? "total" : "per_round_average";
}
const char* name_of(CommPattern p) {
  return p == CommPattern::ReplicatedNature ? "replicated_nature"
                                            : "paper_bcast";
}
const char* name_of(LookupMode m) {
  return m == LookupMode::LinearSearch ? "linear_search" : "indexed";
}
const char* name_of(UpdateRule r) {
  return r == UpdateRule::Moran ? "moran" : "pairwise_comparison";
}
const char* name_of(StrategySpace s) {
  return s == StrategySpace::Mixed ? "mixed" : "pure";
}
const char* name_of(MutationKernel k) {
  switch (k) {
    case MutationKernel::UniformProbs: return "uniform_probs";
    case MutationKernel::UShapedProbs: return "u_shaped_probs";
    case MutationKernel::PureBitFlip: return "pure_bit_flip";
    case MutationKernel::MixedGaussian: return "mixed_gaussian";
  }
  return "uniform_probs";
}
const char* name_of(InteractionSpec::Kind k) {
  switch (k) {
    case InteractionSpec::Kind::Complete: return "complete";
    case InteractionSpec::Kind::Ring: return "ring";
    case InteractionSpec::Kind::Lattice2D: return "lattice2d";
  }
  return "complete";
}

[[noreturn]] void bad_enum(const std::string& what, const std::string& got) {
  throw std::runtime_error("simcheck config: unknown " + what + " \"" + got +
                           "\"");
}

FitnessMode fitness_mode_of(const std::string& s) {
  if (s == "sampled") return FitnessMode::Sampled;
  if (s == "sampled_frozen") return FitnessMode::SampledFrozen;
  if (s == "analytic") return FitnessMode::Analytic;
  bad_enum("fitness_mode", s);
}
FitnessScale fitness_scale_of(const std::string& s) {
  if (s == "per_round_average") return FitnessScale::PerRoundAverage;
  if (s == "total") return FitnessScale::Total;
  bad_enum("fitness_scale", s);
}
CommPattern comm_pattern_of(const std::string& s) {
  if (s == "paper_bcast") return CommPattern::PaperBcast;
  if (s == "replicated_nature") return CommPattern::ReplicatedNature;
  bad_enum("comm_pattern", s);
}
LookupMode lookup_of(const std::string& s) {
  if (s == "indexed") return LookupMode::Indexed;
  if (s == "linear_search") return LookupMode::LinearSearch;
  bad_enum("lookup", s);
}
UpdateRule update_rule_of(const std::string& s) {
  if (s == "pairwise_comparison") return UpdateRule::PairwiseComparison;
  if (s == "moran") return UpdateRule::Moran;
  bad_enum("update_rule", s);
}
StrategySpace space_of(const std::string& s) {
  if (s == "pure") return StrategySpace::Pure;
  if (s == "mixed") return StrategySpace::Mixed;
  bad_enum("space", s);
}
MutationKernel kernel_of(const std::string& s) {
  if (s == "uniform_probs") return MutationKernel::UniformProbs;
  if (s == "u_shaped_probs") return MutationKernel::UShapedProbs;
  if (s == "pure_bit_flip") return MutationKernel::PureBitFlip;
  if (s == "mixed_gaussian") return MutationKernel::MixedGaussian;
  bad_enum("mutation_kernel", s);
}
InteractionSpec::Kind interaction_kind_of(const std::string& s) {
  if (s == "complete") return InteractionSpec::Kind::Complete;
  if (s == "ring") return InteractionSpec::Kind::Ring;
  if (s == "lattice2d") return InteractionSpec::Kind::Lattice2D;
  bad_enum("interaction kind", s);
}

// Typed readers with "missing keeps the default" semantics.
template <class T>
void read_u(const util::JsonValue& v, const char* key, T& out) {
  if (const auto* f = v.find(key)) out = static_cast<T>(f->as_u64());
}
void read_d(const util::JsonValue& v, const char* key, double& out) {
  if (const auto* f = v.find(key)) out = f->as_number();
}
void read_b(const util::JsonValue& v, const char* key, bool& out) {
  if (const auto* f = v.find(key)) out = f->as_bool();
}
template <class Enum, class Fn>
void read_e(const util::JsonValue& v, const char* key, Enum& out, Fn parse) {
  if (const auto* f = v.find(key)) out = parse(f->as_string());
}

}  // namespace

void write_config(util::JsonWriter& w, const core::SimConfig& c) {
  w.begin_object();
  w.field("schema", kConfigSchema);
  w.field("memory", c.memory);
  w.field("ssets", c.ssets);
  w.field("generations", c.generations);
  w.key("interaction").begin_object();
  w.field("kind", name_of(c.interaction.kind));
  w.field("ring_k", c.interaction.ring_k);
  w.field("lattice_width", c.interaction.lattice_width);
  w.field("moore", c.interaction.moore);
  w.end_object();
  w.key("game").begin_object();
  w.field("reward", c.game.payoff.reward);
  w.field("sucker", c.game.payoff.sucker);
  w.field("temptation", c.game.payoff.temptation);
  w.field("punishment", c.game.payoff.punishment);
  w.field("rounds", c.game.rounds);
  w.field("noise", c.game.noise);
  // Wire v3 GameSpec fields, emitted only when they differ from the
  // default IPD: v2 repros parse unchanged and IPD repros stay
  // byte-stable.
  if (c.game.kind == game::GameKind::PublicGoods) {
    w.field("kind", "public_goods");
    w.field("pgg_r", c.game.pgg_r);
    w.field("pgg_cost", c.game.pgg_cost);
    w.field("pgg_k", c.game.pgg_k);
  }
  if (c.game.display_name != "ipd") w.field("name", c.game.display_name);
  if (c.game.actions != 2) w.field("actions", c.game.actions);
  if (c.game.play == game::PlayMode::OneShot) w.field("play", "one_shot");
  if (!c.game.row_payoff.empty()) {
    w.key("row_payoff").begin_array();
    for (double p : c.game.row_payoff) w.value(p);
    w.end_array();
  }
  if (!c.game.col_payoff.empty()) {
    w.key("col_payoff").begin_array();
    for (double p : c.game.col_payoff) w.value(p);
    w.end_array();
  }
  w.end_object();
  w.field("pc_rate", c.pc_rate);
  w.field("mutation_rate", c.mutation_rate);
  w.field("beta", c.beta);
  w.field("require_teacher_better", c.require_teacher_better);
  w.field("update_rule", name_of(c.update_rule));
  w.field("space", name_of(c.space));
  w.field("mutation_kernel", name_of(c.mutation_kernel));
  w.field("mutation_bits", c.mutation_bits);
  w.field("mutation_sigma", c.mutation_sigma);
  w.field("fitness_mode", name_of(c.fitness_mode));
  w.field("fitness_scale", name_of(c.fitness_scale));
  w.field("lookup", name_of(c.lookup));
  w.field("comm_pattern", name_of(c.comm_pattern));
  w.field("seed", c.seed);
  w.field("threads", c.threads);
  w.field("dedup", c.dedup);
  w.end_object();
}

std::string config_to_json(const core::SimConfig& config) {
  std::ostringstream os;
  util::JsonWriter w(os, 0);
  write_config(w, config);
  return os.str();
}

core::SimConfig config_from_json(const util::JsonValue& v) {
  if (!v.is_object()) {
    throw std::runtime_error("simcheck config: expected a JSON object");
  }
  if (const auto* s = v.find("schema")) {
    if (s->as_string() != kConfigSchema) {
      throw std::runtime_error("simcheck config: unexpected schema \"" +
                               s->as_string() + "\"");
    }
  }
  core::SimConfig c;
  read_u(v, "memory", c.memory);
  read_u(v, "ssets", c.ssets);
  read_u(v, "generations", c.generations);
  if (const auto* i = v.find("interaction")) {
    read_e(*i, "kind", c.interaction.kind, interaction_kind_of);
    read_u(*i, "ring_k", c.interaction.ring_k);
    read_u(*i, "lattice_width", c.interaction.lattice_width);
    read_b(*i, "moore", c.interaction.moore);
  }
  if (const auto* g = v.find("game")) {
    read_d(*g, "reward", c.game.payoff.reward);
    read_d(*g, "sucker", c.game.payoff.sucker);
    read_d(*g, "temptation", c.game.payoff.temptation);
    read_d(*g, "punishment", c.game.payoff.punishment);
    read_u(*g, "rounds", c.game.rounds);
    read_d(*g, "noise", c.game.noise);
    if (const auto* k = g->find("kind")) {
      const std::string s = k->as_string();
      if (s == "matrix") {
        c.game.kind = game::GameKind::Matrix;
      } else if (s == "public_goods") {
        c.game.kind = game::GameKind::PublicGoods;
      } else {
        bad_enum("game kind", s);
      }
    }
    if (const auto* n = g->find("name")) c.game.display_name = n->as_string();
    read_u(*g, "actions", c.game.actions);
    if (const auto* p = g->find("play")) {
      const std::string s = p->as_string();
      if (s == "iterated") {
        c.game.play = game::PlayMode::Iterated;
      } else if (s == "one_shot") {
        c.game.play = game::PlayMode::OneShot;
      } else {
        bad_enum("game play", s);
      }
    }
    const auto read_matrix = [&](const char* key, std::vector<double>& out) {
      if (const auto* m = g->find(key)) {
        out.clear();
        for (const auto& e : m->items()) out.push_back(e.as_number());
      }
    };
    read_matrix("row_payoff", c.game.row_payoff);
    read_matrix("col_payoff", c.game.col_payoff);
    read_d(*g, "pgg_r", c.game.pgg_r);
    read_d(*g, "pgg_cost", c.game.pgg_cost);
    read_u(*g, "pgg_k", c.game.pgg_k);
  }
  read_d(v, "pc_rate", c.pc_rate);
  read_d(v, "mutation_rate", c.mutation_rate);
  read_d(v, "beta", c.beta);
  read_b(v, "require_teacher_better", c.require_teacher_better);
  read_e(v, "update_rule", c.update_rule, update_rule_of);
  read_e(v, "space", c.space, space_of);
  read_e(v, "mutation_kernel", c.mutation_kernel, kernel_of);
  read_u(v, "mutation_bits", c.mutation_bits);
  read_d(v, "mutation_sigma", c.mutation_sigma);
  read_e(v, "fitness_mode", c.fitness_mode, fitness_mode_of);
  read_e(v, "fitness_scale", c.fitness_scale, fitness_scale_of);
  read_e(v, "lookup", c.lookup, lookup_of);
  read_e(v, "comm_pattern", c.comm_pattern, comm_pattern_of);
  read_u(v, "seed", c.seed);
  read_u(v, "threads", c.threads);
  read_b(v, "dedup", c.dedup);
  return c;
}

core::SimConfig config_from_json_text(const std::string& text) {
  return config_from_json(util::JsonValue::parse(text));
}

}  // namespace egt::simcheck
