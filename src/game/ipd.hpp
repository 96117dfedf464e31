// The Iterated Prisoner's Dilemma engine (paper §IV-C).
//
// Plays two memory-n strategies against each other for a fixed number of
// rounds (200 in the paper), with optional per-move execution errors
// (§III-E). Both players start from the all-cooperate history (state 0).
//
// Randomness comes from a caller-supplied counter-based StreamRng so that a
// game's outcome depends only on (seed, stream key), never on which rank or
// thread computes it — the determinism backbone of the parallel engine.
#pragma once

#include <cstdint>
#include <optional>

#include "game/payoff.hpp"
#include "game/state.hpp"
#include "game/strategy.hpp"
#include "util/rng.hpp"

namespace egt::game {

namespace batch {
struct Player;
}  // namespace batch

/// Outcome of one iterated game.
struct GameResult {
  double payoff_a = 0.0;  ///< total (summed) payoff of player A
  double payoff_b = 0.0;
  std::uint32_t rounds = 0;
  std::uint32_t coop_a = 0;  ///< number of rounds A cooperated
  std::uint32_t coop_b = 0;

  double mean_payoff_a() const noexcept {
    return rounds == 0 ? 0.0 : payoff_a / rounds;
  }
  double mean_payoff_b() const noexcept {
    return rounds == 0 ? 0.0 : payoff_b / rounds;
  }
  double coop_rate() const noexcept {
    return rounds == 0 ? 0.0
                       : static_cast<double>(coop_a + coop_b) / (2.0 * rounds);
  }
};

/// Game-level parameters (defaults are the paper's §V-C settings).
struct IpdParams {
  PayoffMatrix payoff = paper_payoff();
  std::uint32_t rounds = 200;
  double noise = 0.0;  ///< probability a move is executed flipped
};

/// How the engine maps the current view to a state id. `Indexed` is O(1)
/// arithmetic; `LinearSearch` replicates the paper's find_state scan and is
/// kept for the ablation study.
enum class LookupMode { Indexed, LinearSearch };

class IpdEngine {
 public:
  explicit IpdEngine(int memory, IpdParams params = {},
                     LookupMode mode = LookupMode::Indexed);

  int memory() const noexcept { return codec_.memory(); }
  const IpdParams& params() const noexcept { return params_; }
  LookupMode lookup_mode() const noexcept { return mode_; }
  const StateCodec& codec() const noexcept { return codec_; }

  /// Play one iterated game. Strategy memory depths must equal the
  /// engine's. `rng` is consumed (pure strategies with zero noise draw
  /// nothing, keeping the pure path deterministic and fast). Indexed mode
  /// runs the sampled lane kernel (batch::play_stream_games) with a batch
  /// of one; LinearSearch runs the paper's round loop. Both give bitwise
  /// identical results.
  GameResult play(const Strategy& a, const Strategy& b,
                  util::StreamRng rng) const;

  /// Overload for two pure strategies.
  GameResult play(const PureStrategy& a, const PureStrategy& b,
                  util::StreamRng rng) const;

 private:
  template <class StratA, class StratB>
  GameResult run(const StratA& a, const StratB& b, util::StreamRng& rng) const;
  GameResult play_indexed(const batch::Player& a, const batch::Player& b,
                          util::StreamRng rng) const;

  IpdParams params_;
  StateCodec codec_;
  LookupMode mode_;
  std::optional<LinearStateTable> table_;
};

}  // namespace egt::game
