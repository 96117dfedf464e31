// The population: the replicated global table of SSet strategies plus the
// per-SSet fitness of the current generation.
//
// An SSet (Strategy Set, paper §IV-D) is a group of agents all playing one
// strategy; with the paper's configuration (one agent per opponent SSet)
// an SSet's identity is fully captured by its strategy and fitness, so the
// population stores exactly what every compute node replicates: the
// strategy table and the fitness vector.
//
// Interning layer: PC imitation drives the population toward a handful of
// dominant strategies, so the table usually holds few *unique* strategies.
// The population therefore interns every strategy into a canonical class
// table — content-hashed, refcounted slots — and maintains the SSet → class
// mapping incrementally under set_strategy. The class table is what lets
// the fitness tier play one game per unique strategy pair instead of one
// per SSet pair (core::BlockFitness dedup mode). Two SSets share a class
// id only when their strategies compare equal — the content hash merely
// picks the chain to search. Class ids are transient labels (freed slots
// are recycled), so the fitness tier keys nothing by one beyond a single
// call; its persistent reuse state is the payoff matrix.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "game/batch.hpp"
#include "game/strategy.hpp"
#include "util/rng.hpp"

namespace egt::pop {

using SSetId = std::uint32_t;
using ClassId = std::uint32_t;

/// One slot of the interned class table. Slots with members == 0 are free
/// (their strategy payload is released) and are recycled by later interns.
struct StrategyClass {
  game::Strategy strategy;
  std::uint64_t hash = 0;     ///< Strategy::hash() of `strategy`
  std::uint32_t members = 0;  ///< SSets currently interned to this class
};

class Population {
 public:
  explicit Population(std::vector<game::Strategy> strategies);

  /// `size` SSets with uniformly random pure memory-n strategies.
  static Population random_pure(SSetId size, int memory, util::Xoshiro256& rng);

  /// `size` SSets with uniformly random mixed strategies (each per-state
  /// cooperation probability uniform in [0,1]), the paper's Fig. 2 setup.
  static Population random_mixed(SSetId size, int memory,
                                 util::Xoshiro256& rng);

  /// `size` SSets with n-way strategies over `actions` actions (DESIGN.md
  /// §10): one-hot uniform actions when `pure`, Dirichlet(1) simplex points
  /// otherwise.
  static Population random_nway(SSetId size, std::uint32_t actions, bool pure,
                                util::Xoshiro256& rng);

  SSetId size() const noexcept {
    return static_cast<SSetId>(strategies_.size());
  }
  int memory() const noexcept { return strategies_.front().memory(); }

  const game::Strategy& strategy(SSetId i) const { return strategies_[i]; }
  void set_strategy(SSetId i, game::Strategy s);

  double fitness(SSetId i) const { return fitness_[i]; }
  void set_fitness(SSetId i, double f) { fitness_[i] = f; }
  std::span<const double> fitness() const noexcept { return fitness_; }
  std::span<double> mutable_fitness() noexcept { return fitness_; }

  const std::vector<game::Strategy>& strategies() const noexcept {
    return strategies_;
  }

  /// Class of SSet `i` in the interned table. Two SSets share a class id
  /// exactly when their strategies compare equal.
  ClassId strategy_class(SSetId i) const { return class_of_[i]; }

  /// The class slot table (indexed by ClassId). Slots with members == 0
  /// are free and must be skipped.
  const std::vector<StrategyClass>& classes() const noexcept {
    return classes_;
  }

  /// Number of live (members > 0) classes — the population's strategy
  /// diversity u; the dedup fitness engine plays O(u^2) games.
  std::uint32_t class_count() const noexcept { return live_classes_; }

  /// Content hash of the whole strategy table (integration-test equality).
  std::uint64_t table_hash() const noexcept;

  /// True when class `c` can feed the memory-one batch kernel: a live
  /// binary-game strategy of memory depth one (pure or mixed, not n-way).
  bool mem1_batchable(ClassId c) const noexcept {
    return c < mem1_valid_.size() && mem1_valid_[c] != 0;
  }

  /// SoA view of the class table for the batch fitness kernel
  /// (game/batch.hpp): the four outcome-conditioned cooperation
  /// probabilities of class `c`, indexed by the previous outcome from the
  /// class's own perspective. Only valid when mem1_batchable(c); kept
  /// current incrementally by intern/release.
  const double* mem1_probs(ClassId c) const noexcept {
    return mem1_probs_.data() + 4 * static_cast<std::size_t>(c);
  }

  /// Class `c` as the payoff-only sampled kernel reads a pure B: its
  /// mirrored move table (game::batch::MirrorTables). Only valid when the
  /// class is a live pure binary strategy; kept current by intern.
  game::batch::MirroredPlayer mirror(ClassId c) const noexcept {
    return mirrors_[c];
  }

 private:
  ClassId intern(game::Strategy s);
  void release(ClassId c);
  void refresh_mem1(ClassId c);
  void refresh_mirror(ClassId c);

  std::vector<game::Strategy> strategies_;
  std::vector<double> fitness_;
  std::vector<ClassId> class_of_;       // per SSet
  std::vector<StrategyClass> classes_;  // slot table
  std::vector<ClassId> free_slots_;     // recycled LIFO
  // hash → slots with that content hash (a chain only on a 64-bit hash
  // collision; equality is always verified before sharing a class).
  std::unordered_map<std::uint64_t, std::vector<ClassId>> by_hash_;
  std::uint32_t live_classes_ = 0;
  // Structure-of-arrays mirror of the class table for the batch kernel:
  // mem1_probs_[4c + o] = P(class c cooperates | previous outcome o), valid
  // only where mem1_valid_[c] != 0.
  std::vector<double> mem1_probs_;
  std::vector<std::uint8_t> mem1_valid_;
  // mirrors_[c] = class c's mirrored move table, valid only where class c
  // is a live pure strategy.
  game::batch::MirrorTables mirrors_;
};

}  // namespace egt::pop
