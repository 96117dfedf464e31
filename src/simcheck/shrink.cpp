#include "simcheck/shrink.hpp"

#include <functional>
#include <vector>

namespace egt::simcheck {

namespace {

using Transform = std::function<bool(CaseSpec&)>;  // false = not applicable

// The candidate transformations, ordered so the big structural reductions
// run first (fewer, cheaper oracle calls on the small specs that follow).
std::vector<Transform> transforms() {
  std::vector<Transform> t;
  // Fewer generations.
  t.push_back([](CaseSpec& s) {
    if (s.config.generations <= 1) return false;
    s.config.generations /= 2;
    return true;
  });
  t.push_back([](CaseSpec& s) {
    if (s.config.generations <= 1) return false;
    s.config.generations -= 1;
    return true;
  });
  // Smaller population.
  t.push_back([](CaseSpec& s) {
    if (s.config.ssets <= 2) return false;
    s.config.ssets = std::max<pop::SSetId>(2, s.config.ssets / 2);
    return true;
  });
  t.push_back([](CaseSpec& s) {
    if (s.config.ssets <= 2) return false;
    s.config.ssets -= 1;
    return true;
  });
  // Drop structure / stochasticity / dynamics complexity.
  t.push_back([](CaseSpec& s) {
    if (!s.config.interaction.structured()) return false;
    s.config.interaction = core::InteractionSpec{};
    return true;
  });
  t.push_back([](CaseSpec& s) {
    if (s.config.memory <= 1) return false;
    s.config.memory = 1;
    return true;
  });
  t.push_back([](CaseSpec& s) {
    if (s.config.game.noise == 0.0) return false;
    s.config.game.noise = 0.0;
    return true;
  });
  t.push_back([](CaseSpec& s) {
    if (s.config.game.rounds <= 1) return false;
    s.config.game.rounds = std::max<std::uint32_t>(1, s.config.game.rounds / 2);
    return true;
  });
  t.push_back([](CaseSpec& s) {
    if (s.config.update_rule == pop::UpdateRule::PairwiseComparison) {
      return false;
    }
    s.config.update_rule = pop::UpdateRule::PairwiseComparison;
    return true;
  });
  t.push_back([](CaseSpec& s) {
    if (s.config.mutation_rate == 0.0) return false;
    s.config.mutation_rate = 0.0;
    return true;
  });
  t.push_back([](CaseSpec& s) {
    if (s.config.lookup == game::LookupMode::Indexed) return false;
    s.config.lookup = game::LookupMode::Indexed;
    return true;
  });
  // Drop faults, restore point, thread tiers, ranks.
  t.push_back([](CaseSpec& s) {
    if (s.torn.empty()) return false;
    s.torn.clear();
    return true;
  });
  t.push_back([](CaseSpec& s) {
    if (s.kills.empty()) return false;
    s.kills.clear();
    return true;
  });
  t.push_back([](CaseSpec& s) {
    if (s.ft_checkpoint_every == 0 || !s.kills.empty() || !s.torn.empty()) {
      return false;
    }
    s.ft_checkpoint_every = 0;
    return true;
  });
  t.push_back([](CaseSpec& s) {
    if (s.threads == 0) return false;
    s.threads = 0;
    return true;
  });
  t.push_back([](CaseSpec& s) {
    if (s.nranks <= 2) return false;
    s.nranks = 2;
    return true;
  });
  // Drop engine variants one at a time (keep at least one).
  constexpr int kMaxEngineDrop = 8;
  for (int idx = 0; idx < kMaxEngineDrop; ++idx) {
    t.push_back([idx](CaseSpec& s) {
      if (s.engines.size() <= 1 ||
          static_cast<std::size_t>(idx) >= s.engines.size()) {
        return false;
      }
      s.engines.erase(s.engines.begin() + idx);
      return true;
    });
  }
  return t;
}

}  // namespace

ShrinkResult shrink_case(const CaseSpec& spec, int max_attempts) {
  ShrinkResult best;
  best.spec = spec;
  best.result = run_case(spec);
  ++best.attempts;
  if (best.result.passed()) return best;  // nothing to shrink

  const auto ts = transforms();
  bool progress = true;
  while (progress && best.attempts < max_attempts) {
    progress = false;
    for (const auto& apply : ts) {
      if (best.attempts >= max_attempts) break;
      CaseSpec candidate = best.spec;
      if (!apply(candidate)) continue;
      if (!normalize_spec(candidate)) continue;
      auto outcome = run_case(candidate);
      ++best.attempts;
      if (!outcome.passed()) {
        best.spec = std::move(candidate);
        best.result = std::move(outcome);
        ++best.accepted;
        // Fixed point: the outer loop re-runs every transformation (so
        // halving keeps halving) until a full pass accepts nothing.
        progress = true;
      }
    }
  }
  return best;
}

}  // namespace egt::simcheck
