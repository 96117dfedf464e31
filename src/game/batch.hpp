// Structure-of-arrays batch fitness kernels (DESIGN.md §12).
//
// The fitness hot path evaluates many strategy pairs with identical control
// flow; this module restructures the two dominant per-pair kernels so a
// whole batch runs through one tight loop:
//
//  * Mem1Batch + expected_totals_mem1 — the batch twin of
//    markov::expected_game_mem1. The memory-one Markov propagation is four
//    multiply-accumulate chains over the outcome distribution {CC, CD, DC,
//    DD}; laid out as structure-of-arrays across pairs it runs 4 pairs per
//    AVX2 register (game/batch_avx2.cpp, runtime-dispatched via
//    game/simd.hpp with a portable scalar fallback). Lane arithmetic is
//    strictly vertical: a pair's result does not depend on its lane
//    position or the batch size, so a batch of one equals a lane of eight
//    bitwise, and in-process bitwise invariants (dedup on/off, serial vs
//    threaded) survive batching. The scalar fallback replicates
//    markov::finite_totals_mem1 operation-for-operation, so scalar builds
//    are bit-identical to the pre-batch engine; the AVX2 kernel agrees with
//    the scalar reference to 1e-12 relative (FMA rounding). The fitness
//    tier's entry, expected_payoff_mem1, runs a payoff-only twin with 8 or
//    16 pairs in flight (game/mem1_lanes.hpp), bitwise equal to the AVX2
//    kernel's payoff_a.
//
//  * exact_pure_game_fast / run_pure_game — zero-allocation bit-packed
//    walkers over the deterministic joint trajectory of two pure
//    strategies. The next move is a branchless word-indexed bit read of the
//    packed strategy table over the packed memory-n state (no Move enum
//    round-trips, no payoff matrix branch); per-thread scratch replaces the
//    five vector allocations markov::exact_pure_game pays per call.
//    exact_pure_game_fast is bitwise identical to markov::exact_pure_game
//    (same prefix-sum + closed-form arithmetic); run_pure_game is bitwise
//    identical to the IpdEngine round loop — it takes the cycle
//    closed-form shortcut only when every payoff entry is integral (then
//    every partial sum is an exactly-represented integer, so the closed
//    form reproduces the loop's sum bit-for-bit) and otherwise replays all
//    rounds through the packed walker, accumulating in loop order.
//
//  * play_stream_games — the lane kernel for sampled (stream-keyed) play,
//    the twin of the IpdEngine round loop for pure and mixed pairs under
//    execution noise. A game's draw positions do not depend on its state,
//    so the kernel first pre-draws each stream in blocks of kBlockRounds
//    rounds (noise draws become flip bitmasks via the integer identity
//    uniform01(x) < p <=> (x >> 11) < ceil(p * 2^53)), then walks kLanes
//    games interleaved, branch-free over packed states. The pre-draw runs
//    four streams per AVX2 register or through a scalar twin; both are
//    integer-only, so they agree bitwise, and every game accumulates its
//    payoffs in round order: results are bitwise identical to the loop.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "game/ipd.hpp"
#include "game/payoff.hpp"
#include "game/strategy.hpp"
#include "util/rng.hpp"

namespace egt::game::batch {

/// SoA batch of memory-one pairs prepared for the lane kernel: for each
/// pair, the outcome-conditioned cooperation probabilities of both sides
/// with execution noise already applied and B's perspective already
/// swapped — exactly the markov::OutcomeChain precomputation, transposed
/// across pairs.
class Mem1Batch {
 public:
  void clear() noexcept {
    for (auto& v : pa_) v.clear();
    for (auto& v : pb_) v.clear();
  }
  std::size_t size() const noexcept { return pa_[0].size(); }
  bool empty() const noexcept { return pa_[0].empty(); }

  /// Append pair (a, b); both must be memory-one (pure or mixed).
  void push_pair(const Strategy& a, const Strategy& b, double eps);

  /// Append a pair from raw outcome-conditioned cooperation probabilities
  /// (A's perspective for both, as stored by the pop-layer SoA class
  /// table): ca[o] = P(A cooperates | outcome o), cb likewise for B over
  /// *B's own* outcome encoding. Noise and B's perspective swap are
  /// applied here.
  void push_probs(const double* ca, const double* cb, double eps);

  /// pa(o)[k] = P(pair k's A cooperates | previous outcome o).
  std::span<const double> pa(int o) const noexcept { return pa_[o]; }
  std::span<const double> pb(int o) const noexcept { return pb_[o]; }

 private:
  std::vector<double> pa_[4];
  std::vector<double> pb_[4];
};

/// Exact expected totals of one finite memory-one game (the four fields of
/// markov::FiniteTotals, per pair).
struct BatchTotals {
  double payoff_a = 0.0;
  double payoff_b = 0.0;
  double coop_a = 0.0;
  double coop_b = 0.0;
};

/// Batch twin of markov::expected_game_mem1's totals: out[k] receives pair
/// k's expected totals over `rounds` rounds from the all-cooperate start.
/// Dispatches to the AVX2 lane kernel or the scalar fallback via
/// simd::active_kernel(). `out.size() >= batch.size()`.
void expected_totals_mem1(const Mem1Batch& batch, const PayoffMatrix& payoff,
                          std::uint32_t rounds, std::span<BatchTotals> out);

/// Only the row player's expected total payoff (what the fitness tier
/// consumes), through the payoff-only lane kernel (game/mem1_lanes.hpp) at
/// the width simd::mem1_lanes() names: bitwise equal to
/// expected_totals_mem1's payoff_a under the same kernel, at every width.
void expected_payoff_mem1(const Mem1Batch& batch, const PayoffMatrix& payoff,
                          std::uint32_t rounds, std::span<double> out);

/// Zero-allocation twin of markov::exact_pure_game: exact finite-round
/// totals for two deterministic pure strategies (zero noise) of equal
/// memory depth via cycle detection, bitwise identical to the original.
GameResult exact_pure_game_fast(const PureStrategy& a, const PureStrategy& b,
                                const PayoffMatrix& payoff,
                                std::uint32_t rounds);

/// Zero-allocation twin of the IpdEngine round loop for two pure
/// strategies with zero noise under LookupMode::Indexed: bitwise identical
/// to IpdEngine::play for those parameters (and consumes no RNG, like the
/// loop). Takes the cycle closed-form shortcut only when the payoff matrix
/// is integer-exact over `rounds` rounds.
GameResult run_pure_game(const PureStrategy& a, const PureStrategy& b,
                         const PayoffMatrix& payoff, std::uint32_t rounds);

/// True when every payoff entry is an integer small enough that any
/// `rounds`-length partial sum is exactly representable in a double — the
/// gate under which the cycle closed form reproduces the sequential round
/// loop bit-for-bit.
bool integer_exact_payoff(const PayoffMatrix& payoff,
                          std::uint32_t rounds) noexcept;

/// A strategy as the sampled lane kernel reads it: the packed move table
/// of a pure strategy, or the per-state cooperation probabilities of a
/// mixed one (exactly one pointer is set).
struct Player {
  const std::uint64_t* bits = nullptr;  ///< pure: bit s = move in state s
  const double* coop = nullptr;         ///< mixed: P(cooperate | state s)

  static Player of(const PureStrategy& s) noexcept {
    return {s.table().words().data(), nullptr};
  }
  static Player of(const MixedStrategy& s) noexcept {
    return {nullptr, s.probs().data()};
  }
  /// Pure or mixed strategy (n-way strategies do not play binary moves).
  static Player of(const Strategy& s);
};

/// One sampled game: both players and the stream the round loop would
/// draw from (the kernel reads it from its current position and does not
/// advance it).
struct StreamGame {
  Player a;
  Player b;
  util::StreamRng rng;
};

/// Rounds per pre-draw block.
inline constexpr std::uint32_t kBlockRounds = 64;
/// Games the walker interleaves.
inline constexpr std::size_t kLanes = 8;

/// Sampled lane kernel: out[k] receives games[k] played for params.rounds
/// rounds with execution noise params.noise between strategies of memory
/// depth `memory` — bitwise identical to IpdEngine::play (and to its
/// LookupMode::LinearSearch round loop) on the same players and stream,
/// for any batch size and lane position. Deterministic games (both pure,
/// zero noise) take run_pure_game. `out.size() >= games.size()`.
void play_stream_games(std::span<const StreamGame> games, int memory,
                       const IpdParams& params, std::span<GameResult> out);

/// Which draws of a round feed which decision: draw slots 0..per_round-1
/// in stream order (A's move if A is mixed, then B's if B is mixed, then
/// A's and B's noise draws if noise > 0); -1 marks an absent slot.
struct DrawLayout {
  std::uint32_t per_round = 0;
  int move_a = -1;
  int move_b = -1;
  int noise_a = -1;
  int noise_b = -1;
};

/// One pre-drawn block of up to kBlockRounds rounds for up to kLanes
/// games. Lane l of round t sits at [t][l].
struct DrawBlock {
  /// Flip bitmask of round t: bit 2l + 1 flips A's move in lane l, bit 2l
  /// flips B's — so (flip[t] >> 2l) & 3 XORs straight into the outcome
  /// o = 2 * (A defects) + (B defects).
  std::uint16_t flip[kBlockRounds];
  std::uint64_t move_a[kBlockRounds][kLanes];  ///< raw draws for A's move
  std::uint64_t move_b[kBlockRounds][kLanes];
};
static_assert(2 * kLanes <= 16, "flip masks hold two bits per lane");

/// Pre-draw rounds [first_round, first_round + rounds) of `lanes` streams
/// (origin[l] = StreamRng::origin() of lane l) into `out`; a noise draw x
/// sets its flip bit when (x >> 11) < noise_threshold. Dispatches like
/// expected_totals_mem1 when `lanes` fills whole AVX2 registers (a
/// multiple of 4), to the scalar twin otherwise. `lanes` in [1, kLanes],
/// `rounds` in [1, kBlockRounds].
void predraw_block(const std::uint64_t* origin, std::size_t lanes,
                   const DrawLayout& layout, std::uint64_t first_round,
                   std::uint32_t rounds, std::uint64_t noise_threshold,
                   DrawBlock& out);

/// ceil(p * 2^53): the integer threshold t with
/// uniform01(x) < p <=> (x >> 11) < t, for p in [0, 1].
std::uint64_t unit_threshold(double p) noexcept;

// Internal: the pre-draw twins behind predraw_block, exposed for kernel
// cross-validation (simcheck --kernels). Without the AVX2 TU the AVX2 twin
// is a stub that throws; callers gate it on simd::compiled_with_avx2().
void predraw_block_scalar(const std::uint64_t* origin, std::size_t lanes,
                          const DrawLayout& layout, std::uint64_t first_round,
                          std::uint32_t rounds, std::uint64_t noise_threshold,
                          DrawBlock& out);
void predraw_block_avx2(const std::uint64_t* origin, std::size_t lanes,
                        const DrawLayout& layout, std::uint64_t first_round,
                        std::uint32_t rounds, std::uint64_t noise_threshold,
                        DrawBlock& out);

// Internal: the AVX2 lane kernel (only defined when the AVX2 TU is
// compiled in; callers go through expected_totals_mem1's dispatch).
void expected_totals_mem1_avx2(const Mem1Batch& batch,
                               const PayoffMatrix& payoff,
                               std::uint32_t rounds, BatchTotals* out);

// Internal: the portable scalar fallback, exposed for kernel
// cross-validation (simcheck --kernels).
void expected_totals_mem1_scalar(const Mem1Batch& batch,
                                 const PayoffMatrix& payoff,
                                 std::uint32_t rounds, BatchTotals* out);

// Internal: expected_payoff_mem1 at an explicit width — `lanes` pairs in
// flight, 1 (scalar), 8 (AVX2) or 16 (AVX-512) — exposed for kernel
// cross-validation. A width the build lacks throws; callers gate 8 and 16
// on simd::compiled_with_avx2(), and each on the CPU.
void expected_payoff_mem1_lanes(const Mem1Batch& batch,
                                const PayoffMatrix& payoff,
                                std::uint32_t rounds, int lanes, double* out);

}  // namespace egt::game::batch
