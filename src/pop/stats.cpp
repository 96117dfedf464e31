#include "pop/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "game/named.hpp"

namespace egt::pop {

std::vector<CensusEntry> census(const Population& pop) {
  // One entry per live class of the interned table (classes are exact:
  // equal strategies share one, a hash collision splits none). The first
  // SSet met of a class is its lowest.
  const std::vector<StrategyClass>& classes = pop.classes();
  std::vector<std::uint8_t> seen(classes.size(), 0);
  std::vector<CensusEntry> out;
  out.reserve(pop.class_count());
  for (SSetId i = 0; i < pop.size(); ++i) {
    const ClassId c = pop.strategy_class(i);
    if (seen[c] != 0) continue;
    seen[c] = 1;
    out.push_back({classes[c].hash, classes[c].members, i});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.hash != b.hash ? a.hash < b.hash : a.example < b.example;
  });
  return out;
}

double dominant_fraction(const Population& pop) {
  const auto c = census(pop);
  return static_cast<double>(c.front().count) / pop.size();
}

double strategy_entropy(const Population& pop) {
  const auto c = census(pop);
  double h = 0.0;
  for (const auto& e : c) {
    const double p = static_cast<double>(e.count) / pop.size();
    h -= p * std::log(p);
  }
  return h;
}

std::size_t distinct_strategies(const Population& pop) {
  return census(pop).size();
}

double mean_coop_probability(const Population& pop) {
  double sum = 0.0;
  std::size_t cells = 0;
  for (SSetId i = 0; i < pop.size(); ++i) {
    const auto& s = pop.strategy(i);
    if (s.is_pure() && sum == std::trunc(sum)) {
      // A pure strategy adds 1.0 per cooperating state (a clear move bit).
      // Onto an integral sum every such add is exact, so adding the count
      // at once gives the per-state loop's bits.
      sum += static_cast<double>(s.states() - s.as_pure().table().popcount());
    } else {
      for (game::State st = 0; st < s.states(); ++st) {
        sum += s.coop_prob(st);
      }
    }
    cells += s.states();
  }
  return cells == 0 ? 0.0 : sum / static_cast<double>(cells);
}

double fraction_near(const Population& pop, const game::Strategy& reference,
                     double tol) {
  const game::MixedStrategy ref = reference.to_mixed();
  std::size_t near = 0;
  for (SSetId i = 0; i < pop.size(); ++i) {
    if (pop.strategy(i).to_mixed().distance(ref) <= tol) ++near;
  }
  return static_cast<double>(near) / pop.size();
}

double mean_pairwise_distance(const Population& pop) {
  if (pop.size() < 2) return 0.0;
  // Convert once; pairwise distances on the cached mixed views.
  std::vector<game::MixedStrategy> mixed;
  mixed.reserve(pop.size());
  for (SSetId i = 0; i < pop.size(); ++i) {
    mixed.push_back(pop.strategy(i).to_mixed());
  }
  double sum = 0.0;
  std::size_t pairs = 0;
  for (SSetId i = 0; i < pop.size(); ++i) {
    for (SSetId j = i + 1; j < pop.size(); ++j) {
      sum += mixed[i].distance(mixed[j]);
      ++pairs;
    }
  }
  return sum / static_cast<double>(pairs);
}

std::string format_census(const Population& pop, std::size_t top_k) {
  const auto c = census(pop);
  std::ostringstream os;
  os << "distinct strategies: " << c.size() << "\n";
  for (std::size_t k = 0; k < std::min(top_k, c.size()); ++k) {
    const auto& e = c[k];
    const auto& strat = pop.strategy(e.example);
    os << "  " << e.count << " SSets (" << 100.0 * e.count / pop.size()
       << "%)";
    if (strat.is_nway() && strat.as_nway().actions() != 2) {
      // Binary named strategies don't apply; show the action mix itself.
      os << "  mix=" << strat.as_nway().to_string();
    } else {
      const auto [name, dist] = game::named::nearest_named(strat);
      os << "  nearest-named=" << name << " (d=" << dist << ")";
    }
    if (strat.is_pure() && strat.states() <= 16) {
      os << "  bits=" << strat.as_pure().to_string();
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace egt::pop
