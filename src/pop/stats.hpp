// Population-level statistics: censuses, diversity, cooperation measures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pop/population.hpp"

namespace egt::pop {

/// One strategy cluster in a census: one class of the population's
/// interned table (exact identity, Strategy::operator==).
struct CensusEntry {
  std::uint64_t hash = 0;
  std::size_t count = 0;
  SSetId example = 0;  ///< the lowest SSet holding this strategy
};

/// Exact-identity census, sorted by descending count, then hash, then
/// example.
std::vector<CensusEntry> census(const Population& pop);

/// Fraction of SSets holding the single most common strategy.
double dominant_fraction(const Population& pop);

/// Shannon entropy (nats) of the strategy distribution.
double strategy_entropy(const Population& pop);

/// Number of distinct strategies present.
std::size_t distinct_strategies(const Population& pop);

/// Mean per-state cooperation probability across the whole table — a cheap
/// proxy for how cooperative the population's rules are.
double mean_coop_probability(const Population& pop);

/// Fraction of SSets whose strategy lies within L2 distance `tol` of the
/// given reference strategy (e.g. WSLS for the Fig. 2 validation).
double fraction_near(const Population& pop, const game::Strategy& reference,
                     double tol);

/// Mean L2 distance between all unordered strategy pairs — a continuous
/// diversity measure (0 = monomorphic) complementing the census entropy.
double mean_pairwise_distance(const Population& pop);

/// Human-readable top-k census block.
std::string format_census(const Population& pop, std::size_t top_k);

}  // namespace egt::pop
