// Memory-n strategies.
//
// A strategy maps every game state (4^n of them) to a move. *Pure*
// strategies pick the move deterministically (one bit per state, the
// paper's Table III); *mixed* strategies pick Cooperate with a per-state
// probability (§III-C). `Strategy` is the value-type wrapper the population
// layer stores, compares, hashes and serialises for broadcast.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "game/move.hpp"
#include "game/state.hpp"
#include "util/bitvec.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace egt::game {

/// Deterministic strategy: bit s is the move played in state s (0=C, 1=D).
class PureStrategy {
 public:
  PureStrategy() : PureStrategy(1) {}

  /// All-cooperate strategy of the given memory depth.
  explicit PureStrategy(int memory)
      : memory_(memory), moves_(num_states(memory)) {
    EGT_REQUIRE(memory >= 0 && memory <= kMaxMemory);
  }

  /// From a '0'/'1' string of length 4^n (state 0 first), e.g. "0110" for
  /// memory-one; n is inferred from the length.
  static PureStrategy from_bits(const std::string& bits);

  /// Uniformly random strategy (every move a fair coin).
  template <class Rng>
  static PureStrategy random(int memory, Rng& rng) {
    PureStrategy s(memory);
    s.moves_.randomize(rng);
    return s;
  }

  int memory() const noexcept { return memory_; }
  std::uint32_t states() const noexcept {
    return static_cast<std::uint32_t>(moves_.size());
  }

  Move move(State s) const noexcept { return from_bit(moves_.get(s)); }
  void set_move(State s, Move m) noexcept { moves_.set(s, to_bit(m) != 0); }

  const util::BitVec& table() const noexcept { return moves_; }
  util::BitVec& table() noexcept { return moves_; }

  std::uint64_t hash() const noexcept { return moves_.hash(); }
  std::string to_string() const { return moves_.to_string(); }

  friend bool operator==(const PureStrategy& a,
                         const PureStrategy& b) noexcept {
    return a.memory_ == b.memory_ && a.moves_ == b.moves_;
  }

 private:
  int memory_;
  util::BitVec moves_;
};

/// Stochastic strategy: coop_[s] is the probability of cooperating in
/// state s.
class MixedStrategy {
 public:
  MixedStrategy() : MixedStrategy(1) {}

  /// Memory-n strategy cooperating with probability `p` in every state.
  explicit MixedStrategy(int memory, double p = 1.0);

  /// From an explicit per-state cooperation probability vector; the memory
  /// depth is inferred from the size (must be 4^n).
  static MixedStrategy from_probs(std::vector<double> coop);

  /// Memory-one convenience: probabilities for states (CC, CD, DC, DD) in
  /// the (my move, opp move) order of StateCodec.
  static MixedStrategy mem1(const std::array<double, 4>& coop);

  /// Every state probability uniform in [0, 1].
  template <class Rng>
  static MixedStrategy random(int memory, Rng& rng) {
    MixedStrategy s(memory, 0.0);
    for (auto& p : s.coop_) p = util::uniform01(rng);
    return s;
  }

  /// Deterministic strategy viewed as a degenerate mixed one.
  static MixedStrategy from_pure(const PureStrategy& p);

  int memory() const noexcept { return memory_; }
  std::uint32_t states() const noexcept {
    return static_cast<std::uint32_t>(coop_.size());
  }

  double coop_prob(State s) const noexcept { return coop_[s]; }
  void set_coop_prob(State s, double p);

  template <class Rng>
  Move move(State s, Rng& rng) const {
    return util::uniform01(rng) < coop_[s] ? Move::Cooperate : Move::Defect;
  }

  const std::vector<double>& probs() const noexcept { return coop_; }

  /// True when every probability is exactly 0 or 1.
  bool is_degenerate() const noexcept;

  /// Euclidean distance in probability space (used by k-means / census).
  double distance(const MixedStrategy& other) const;

  std::uint64_t hash() const noexcept;
  std::string to_string() const;

  friend bool operator==(const MixedStrategy& a,
                         const MixedStrategy& b) noexcept {
    return a.memory_ == b.memory_ && a.coop_ == b.coop_;
  }

 private:
  int memory_;
  std::vector<double> coop_;
};

/// Memory-0 action distribution over m >= 2 actions, for n-way matrix
/// games (DESIGN.md §10). N-way games play one-shot stage games, so unlike
/// Pure/MixedStrategy there is no game state: the strategy is a single
/// point on the action simplex. Binary games (including the public goods
/// contribution choice) keep using Pure/MixedStrategy.
class NWayStrategy {
 public:
  NWayStrategy() : NWayStrategy(2) {}

  /// Uniform distribution over `actions` actions.
  explicit NWayStrategy(std::uint32_t actions);

  /// Explicit distribution; the action count is the vector size (in
  /// [2, 255], entries in [0,1] summing to 1).
  static NWayStrategy from_probs(std::vector<double> probs);

  /// One-hot "pure" n-way strategy always playing `action`.
  static NWayStrategy pure_action(std::uint32_t actions,
                                  std::uint32_t action);

  /// Uniform on the simplex (Dirichlet(1,...,1), via normalized Exp(1)
  /// draws — `actions` uniform01 consumptions).
  template <class Rng>
  static NWayStrategy random(std::uint32_t actions, Rng& rng) {
    std::vector<double> p(actions);
    double total = 0.0;
    for (auto& v : p) {
      v = -std::log1p(-util::uniform01(rng));
      total += v;
    }
    if (total <= 0.0) return NWayStrategy(actions);  // all-zero draw
    for (auto& v : p) v /= total;
    return from_probs(std::move(p));
  }

  std::uint32_t actions() const noexcept {
    return static_cast<std::uint32_t>(probs_.size());
  }
  int memory() const noexcept { return 0; }
  std::uint32_t states() const noexcept { return 1; }

  double action_prob(std::uint32_t a) const { return probs_[a]; }
  const std::vector<double>& probs() const noexcept { return probs_; }

  /// True when the distribution is one-hot.
  bool is_degenerate() const noexcept;

  std::uint64_t hash() const noexcept;
  std::string to_string() const;

  friend bool operator==(const NWayStrategy& a,
                         const NWayStrategy& b) noexcept {
    return a.probs_ == b.probs_;
  }

 private:
  std::vector<double> probs_;
};

/// Value-type strategy wrapper stored by the population layer.
class Strategy {
 public:
  Strategy() : impl_(PureStrategy(1)) {}
  Strategy(PureStrategy p) : impl_(std::move(p)) {}    // NOLINT(implicit)
  Strategy(MixedStrategy m) : impl_(std::move(m)) {}   // NOLINT(implicit)
  Strategy(NWayStrategy n) : impl_(std::move(n)) {}    // NOLINT(implicit)

  bool is_pure() const noexcept {
    return std::holds_alternative<PureStrategy>(impl_);
  }
  bool is_nway() const noexcept {
    return std::holds_alternative<NWayStrategy>(impl_);
  }
  const PureStrategy& as_pure() const { return std::get<PureStrategy>(impl_); }
  const MixedStrategy& as_mixed() const {
    return std::get<MixedStrategy>(impl_);
  }
  const NWayStrategy& as_nway() const { return std::get<NWayStrategy>(impl_); }

  int memory() const noexcept;
  std::uint32_t states() const noexcept;

  /// Cooperation probability in state s (0/1 for pure strategies).
  double coop_prob(State s) const noexcept;

  /// Pure strategies never consume randomness. N-way strategies do not
  /// play binary Moves — config validation routes them through the
  /// one-shot spec engine instead.
  template <class Rng>
  Move move(State s, Rng& rng) const {
    if (const auto* p = std::get_if<PureStrategy>(&impl_)) return p->move(s);
    EGT_REQUIRE_MSG(!is_nway(),
                    "n-way strategies play via the spec engine, not Move");
    return std::get<MixedStrategy>(impl_).move(s, rng);
  }

  /// Mixed view of the strategy (per-state cooperation probabilities).
  /// N-way strategies only convert when actions == 2.
  MixedStrategy to_mixed() const;

  std::uint64_t hash() const noexcept;

  /// Wire format for the parallel runtime's strategy broadcasts:
  /// [kind:u8][memory:u8][payload]. Kind 0 = pure (payload packed bits),
  /// 1 = mixed (per-state doubles), 2 = n-way ([actions:u8] then
  /// per-action doubles, memory byte always 0).
  std::vector<std::byte> serialize() const;
  static Strategy deserialize(const std::vector<std::byte>& bytes);

  friend bool operator==(const Strategy& a, const Strategy& b) noexcept {
    return a.impl_ == b.impl_;
  }

 private:
  std::variant<PureStrategy, MixedStrategy, NWayStrategy> impl_;
};

}  // namespace egt::game
