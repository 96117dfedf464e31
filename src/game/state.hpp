// Memory-n game state machinery.
//
// A *state* is the content of the last n rounds as seen by one player: for
// each remembered round, the player's own move and the opponent's move
// (2 bits per round), so there are 4^n states (paper §III-D). We encode a
// state as an integer: round t-1 (most recent) occupies the lowest 2 bits,
// with the player's own move as the high bit of the pair:
//
//   state = sum_k 4^k * (2 * my_move[t-1-k] + opp_move[t-1-k])
//
// The opponent observes the mirrored state (bits in each pair swapped). The
// initial history is "everyone cooperated", i.e. state 0, which matches the
// paper's zero-initialised current_view.
//
// Two lookup paths exist:
//  * StateCodec — O(1) arithmetic push/encode (the library default);
//  * LinearStateTable — materialises the state list and locates the current
//    view by linear search, which is what the paper's find_state pseudocode
//    does and what it blames for the runtime growth with memory steps.
//    Kept as an ablation (bench/ablation_state_lookup).
#pragma once

#include <cstdint>
#include <vector>

#include "game/move.hpp"

namespace egt::game {

using State = std::uint32_t;

/// Maximum memory steps supported (memory-six: 4,096 states, as the paper).
inline constexpr int kMaxMemory = 6;

/// Number of states for memory-n: 4^n (1 for memory-zero).
constexpr std::uint32_t num_states(int memory) noexcept {
  return 1u << (2 * memory);
}

/// Number of pure strategies is 2^(4^n); returns the exponent 4^n.
constexpr std::uint32_t pure_strategy_bits(int memory) noexcept {
  return num_states(memory);
}

/// The same history seen from the opponent's side: each 2-bit pair swaps
/// (my move <-> opponent move). The encoding of a round does not depend on
/// the memory depth, so neither does the swap.
constexpr State swap_pairs(State s) noexcept {
  constexpr State kOddBits = 0x55555555u;  // the opponent-move bits
  return ((s & kOddBits) << 1) | ((s >> 1) & kOddBits);
}

/// O(1) state arithmetic for a fixed memory depth.
class StateCodec {
 public:
  explicit StateCodec(int memory);

  int memory() const noexcept { return memory_; }
  std::uint32_t states() const noexcept { return states_; }

  /// Append a round (my move, opponent's move) to `s`, dropping the oldest.
  State push(State s, Move mine, Move theirs) const noexcept {
    return ((s << 2) | static_cast<State>(2 * to_bit(mine) + to_bit(theirs))) &
           mask_;
  }

  /// The same history seen from the opponent's side (swap_pairs).
  State swap_perspective(State s) const noexcept { return swap_pairs(s); }

  /// My move in remembered round k (0 = most recent) of state `s`.
  Move my_move(State s, int k) const noexcept {
    return from_bit((s >> (2 * k + 1)) & 1u);
  }
  /// Opponent's move in remembered round k of state `s`.
  Move opp_move(State s, int k) const noexcept {
    return from_bit((s >> (2 * k)) & 1u);
  }

  /// Encode a full history (round 0 = most recent); vectors sized memory().
  State encode(const std::vector<Move>& mine,
               const std::vector<Move>& theirs) const;

  /// Initial state: all-cooperate history.
  static constexpr State initial() noexcept { return 0; }

 private:
  int memory_;
  std::uint32_t states_;
  State mask_;
};

/// The paper's state table: an explicit list of per-round move patterns,
/// searched linearly for the pattern matching the current view (the
/// `find_state` of the IPD pseudocode in §IV-C).
class LinearStateTable {
 public:
  explicit LinearStateTable(int memory);

  int memory() const noexcept { return codec_.memory(); }
  std::uint32_t states() const noexcept { return codec_.states(); }

  /// Linear search for the row equal to `view`; `view` holds 2 bits per
  /// remembered round in the same layout as StateCodec.
  State find_state(State view) const noexcept;

  const StateCodec& codec() const noexcept { return codec_; }

 private:
  StateCodec codec_;
  std::vector<State> rows_;  // rows_[i] is the view pattern of state i
};

}  // namespace egt::game
