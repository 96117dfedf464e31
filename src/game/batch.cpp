#include "game/batch.hpp"

#include <algorithm>
#include <cmath>

#include "game/mem1_lanes.hpp"
#include "game/simd.hpp"
#include "game/state.hpp"
#include "game/stream_lanes.hpp"
#include "util/check.hpp"

namespace egt::game::batch {

namespace {

/// Effective cooperation probability after execution noise — must match
/// markov.cpp's noisy() exactly (the scalar kernel replicates the
/// OutcomeChain arithmetic bit-for-bit).
inline double noisy(double p, double eps) noexcept {
  return (1.0 - eps) * p + eps * (1.0 - p);
}

/// B observes the mirrored outcome: (my, opp) bits swap.
constexpr int swap_outcome(int o) noexcept {
  return ((o & 1) << 1) | (o >> 1);
}

}  // namespace

void Mem1Batch::push_pair(const Strategy& a, const Strategy& b, double eps) {
  EGT_REQUIRE_MSG(a.memory() == 1 && b.memory() == 1,
                  "batch kernel requires memory-one strategies");
  for (int o = 0; o < 4; ++o) {
    pa_[o].push_back(noisy(a.coop_prob(static_cast<State>(o)), eps));
    pb_[o].push_back(noisy(
        b.coop_prob(static_cast<State>(swap_outcome(o))), eps));
  }
}

void Mem1Batch::push_probs(const double* ca, const double* cb, double eps) {
  for (int o = 0; o < 4; ++o) {
    pa_[o].push_back(noisy(ca[o], eps));
    pb_[o].push_back(noisy(cb[swap_outcome(o)], eps));
  }
}

namespace {

/// Per-pair replica of markov::finite_totals_mem1 (same expressions, same
/// accumulation order, same zero-mass skip), reading pair k's SoA lanes: a
/// scalar build of the batch kernel is bit-identical to the pre-batch
/// engine. Inlined into a caller that keeps only payoff_a, the other three
/// accumulators are dead code.
inline BatchTotals scalar_totals(const Mem1Batch& batch, std::size_t k,
                                 const PayoffMatrix& payoff,
                                 std::uint32_t rounds) {
  const std::array<double, 4> va{payoff.reward, payoff.sucker,
                                 payoff.temptation, payoff.punishment};
  const std::array<double, 4> vb{payoff.reward, payoff.temptation,
                                 payoff.sucker, payoff.punishment};
  const std::array<double, 4> pa{batch.pa(0)[k], batch.pa(1)[k],
                                 batch.pa(2)[k], batch.pa(3)[k]};
  const std::array<double, 4> pb{batch.pb(0)[k], batch.pb(1)[k],
                                 batch.pb(2)[k], batch.pb(3)[k]};
  BatchTotals t;
  std::array<double, 4> prev{1.0, 0.0, 0.0, 0.0};
  for (std::uint32_t r = 0; r < rounds; ++r) {
    std::array<double, 4> d{};
    for (std::size_t o = 0; o < 4; ++o) {
      if (prev[o] == 0.0) continue;
      const double ca = pa[o];
      const double cb = pb[o];
      d[0] += prev[o] * ca * cb;
      d[1] += prev[o] * ca * (1.0 - cb);
      d[2] += prev[o] * (1.0 - ca) * cb;
      d[3] += prev[o] * (1.0 - ca) * (1.0 - cb);
    }
    for (std::size_t o = 0; o < 4; ++o) {
      t.payoff_a += d[o] * va[o];
      t.payoff_b += d[o] * vb[o];
    }
    t.coop_a += d[0] + d[1];
    t.coop_b += d[0] + d[2];
    prev = d;
  }
  return t;
}

}  // namespace

void expected_totals_mem1_scalar(const Mem1Batch& batch,
                                 const PayoffMatrix& payoff,
                                 std::uint32_t rounds, BatchTotals* out) {
  for (std::size_t k = 0; k < batch.size(); ++k) {
    out[k] = scalar_totals(batch, k, payoff, rounds);
  }
}

void expected_totals_mem1(const Mem1Batch& batch, const PayoffMatrix& payoff,
                          std::uint32_t rounds, std::span<BatchTotals> out) {
  EGT_REQUIRE(out.size() >= batch.size());
  if (batch.empty()) return;
#if defined(EGT_SIMD_AVX2)
  if (simd::active_kernel() == simd::Kernel::Avx2) {
    expected_totals_mem1_avx2(batch, payoff, rounds, out.data());
    return;
  }
#endif
  expected_totals_mem1_scalar(batch, payoff, rounds, out.data());
}

#if !defined(EGT_SIMD_AVX2)
// Link-time stubs for -DEGT_SIMD=OFF / non-x86 builds: cross-kernel checks
// (simcheck --kernels, the gtest suites) reference these symbols but gate
// the call on simd::compiled_with_avx2(), which is false here.
void expected_totals_mem1_avx2(const Mem1Batch&, const PayoffMatrix&,
                               std::uint32_t, BatchTotals*) {
  EGT_REQUIRE_MSG(false, "AVX2 batch kernel not compiled in (EGT_SIMD=OFF)");
}
void payoff_mem1_avx2(const Mem1Lanes&, std::size_t, double*) {
  EGT_REQUIRE_MSG(false, "AVX2 batch kernel not compiled in (EGT_SIMD=OFF)");
}
void payoff_mem1_avx512(const Mem1Lanes&, std::size_t, double*) {
  EGT_REQUIRE_MSG(false, "AVX-512 payoff kernel not compiled in "
                         "(EGT_SIMD=OFF)");
}
#endif

void expected_payoff_mem1_lanes(const Mem1Batch& batch,
                                const PayoffMatrix& payoff,
                                std::uint32_t rounds, int lanes,
                                double* out) {
  if (lanes == 1) {
    for (std::size_t k = 0; k < batch.size(); ++k) {
      out[k] = scalar_totals(batch, k, payoff, rounds).payoff_a;
    }
    return;
  }
  EGT_REQUIRE_MSG(lanes == 8 || lanes == 16,
                  "payoff kernel width must be 1, 8 or 16 pairs");
  const Mem1Lanes in{
      {batch.pa(0).data(), batch.pa(1).data(), batch.pa(2).data(),
       batch.pa(3).data()},
      {batch.pb(0).data(), batch.pb(1).data(), batch.pb(2).data(),
       batch.pb(3).data()},
      {payoff.reward, payoff.sucker, payoff.temptation, payoff.punishment},
      rounds};
  if (lanes == 16) {
    payoff_mem1_avx512(in, batch.size(), out);
  } else {
    payoff_mem1_avx2(in, batch.size(), out);
  }
}

void expected_payoff_mem1(const Mem1Batch& batch, const PayoffMatrix& payoff,
                          std::uint32_t rounds, std::span<double> out) {
  EGT_REQUIRE(out.size() >= batch.size());
  if (batch.empty()) return;
  expected_payoff_mem1_lanes(batch, payoff, rounds, simd::mem1_lanes(),
                             out.data());
}

bool integer_exact_payoff(const PayoffMatrix& payoff,
                          std::uint32_t rounds) noexcept {
  // Every partial sum of up to `rounds` entries (and the closed-form
  // cycle-count products, bounded by rounds * max|entry|) must be an
  // exactly-representable integer.
  constexpr double kExact = 4503599627370496.0;  // 2^52 (margin under 2^53)
  for (const double v :
       {payoff.reward, payoff.sucker, payoff.temptation, payoff.punishment}) {
    if (std::nearbyint(v) != v) return false;
    if (std::fabs(v) * static_cast<double>(rounds) >= kExact) return false;
  }
  return true;
}

namespace {

/// Per-thread walker scratch: replaces the five vectors
/// markov::exact_pure_game allocates per call. Sized lazily to the largest
/// state space seen; `visited` undoes the first_seen stamps after each
/// walk so resets cost O(steps walked), not O(states).
struct PureScratch {
  std::vector<std::int32_t> first_seen;  // -1 = unseen
  std::vector<State> visited;
  std::vector<double> cum_a, cum_b;
  std::vector<std::uint32_t> cum_ca, cum_cb;

  void prepare(std::uint32_t states, std::uint32_t max_steps) {
    if (first_seen.size() < states) first_seen.assign(states, -1);
    visited.clear();
    // +2: index max_steps must be addressable (prefix sums over steps).
    if (cum_a.size() < max_steps + 2) {
      cum_a.resize(max_steps + 2);
      cum_b.resize(max_steps + 2);
      cum_ca.resize(max_steps + 2);
      cum_cb.resize(max_steps + 2);
    }
  }
  void release() {
    for (const State s : visited) first_seen[s] = -1;
    visited.clear();
  }
};

PureScratch& scratch() {
  thread_local PureScratch tls;
  return tls;
}

/// The closed-form totals of markov::exact_pure_game::result_at, verbatim:
/// totals over `rounds` steps of a trajectory that is a cycle [t0, t1)
/// after a transient of t0 steps.
GameResult result_at(const PureScratch& s, std::uint32_t t0, std::uint32_t t1,
                     std::uint32_t rounds) {
  GameResult res;
  res.rounds = rounds;
  if (rounds < t1) {
    res.payoff_a = s.cum_a[rounds];
    res.payoff_b = s.cum_b[rounds];
    res.coop_a = s.cum_ca[rounds];
    res.coop_b = s.cum_cb[rounds];
    return res;
  }
  const std::uint32_t len = t1 - t0;
  const std::uint32_t after = rounds - t0;
  const std::uint32_t cycles = after / len;
  const std::uint32_t rem = after % len;
  res.payoff_a = s.cum_a[t0] + cycles * (s.cum_a[t1] - s.cum_a[t0]) +
                 (s.cum_a[t0 + rem] - s.cum_a[t0]);
  res.payoff_b = s.cum_b[t0] + cycles * (s.cum_b[t1] - s.cum_b[t0]) +
                 (s.cum_b[t0 + rem] - s.cum_b[t0]);
  res.coop_a = s.cum_ca[t0] + cycles * (s.cum_ca[t1] - s.cum_ca[t0]) +
               (s.cum_ca[t0 + rem] - s.cum_ca[t0]);
  res.coop_b = s.cum_cb[t0] + cycles * (s.cum_cb[t1] - s.cum_cb[t0]) +
               (s.cum_cb[t0 + rem] - s.cum_cb[t0]);
  return res;
}

/// Cycle-detecting walker shared by the analytic and sampled fast paths.
/// Both strategies' views are maintained as packed states; the next move
/// is a branchless word-indexed bit read of the packed strategy table.
GameResult walk_pure_cycle(const std::uint64_t* wa, const std::uint64_t* wb,
                           int memory, const PayoffMatrix& payoff,
                           std::uint32_t rounds) {
  const std::uint32_t states = num_states(memory);
  const State mask = states - 1;
  // o = 2 * (A defects) + (B defects): pay_a[o] == payoff.payoff(ma, mb).
  const double pay_a[4] = {payoff.reward, payoff.sucker, payoff.temptation,
                           payoff.punishment};
  const double pay_b[4] = {payoff.reward, payoff.temptation, payoff.sucker,
                           payoff.punishment};

  PureScratch& s = scratch();
  // The walk revisits a state within min(states, rounds) + 1 steps.
  s.prepare(states, states < rounds ? states : rounds);
  s.cum_a[0] = 0.0;
  s.cum_b[0] = 0.0;
  s.cum_ca[0] = 0;
  s.cum_cb[0] = 0;

  State sa = StateCodec::initial();
  State sb = StateCodec::initial();  // == swap_perspective(sa), maintained
  for (std::uint32_t t = 0;; ++t) {
    if (s.first_seen[sa] >= 0) {
      const auto t0 = static_cast<std::uint32_t>(s.first_seen[sa]);
      const GameResult res = result_at(s, t0, t, rounds);
      s.release();
      return res;
    }
    if (t >= rounds) {
      // No revisit needed: we already walked the whole game.
      const GameResult res = result_at(s, t, t + 1, rounds);
      s.release();
      return res;
    }
    s.first_seen[sa] = static_cast<std::int32_t>(t);
    s.visited.push_back(sa);
    const std::uint64_t ba = (wa[sa >> 6] >> (sa & 63)) & 1u;
    const std::uint64_t bb = (wb[sb >> 6] >> (sb & 63)) & 1u;
    const std::uint64_t o = 2 * ba + bb;
    s.cum_a[t + 1] = s.cum_a[t] + pay_a[o];
    s.cum_b[t + 1] = s.cum_b[t] + pay_b[o];
    s.cum_ca[t + 1] = s.cum_ca[t] + static_cast<std::uint32_t>(1 - ba);
    s.cum_cb[t + 1] = s.cum_cb[t] + static_cast<std::uint32_t>(1 - bb);
    sa = static_cast<State>(((sa << 2) | o) & mask);
    sb = static_cast<State>(((sb << 2) | (2 * bb + ba)) & mask);
  }
}

/// run_pure_game over raw packed move tables.
GameResult run_pure_tables(const std::uint64_t* wa, const std::uint64_t* wb,
                           int memory, const PayoffMatrix& payoff,
                           std::uint32_t rounds) {
  if (integer_exact_payoff(payoff, rounds)) {
    // Every partial sum is an exact integer, so the cycle closed form
    // reproduces the sequential loop's totals bit-for-bit.
    return walk_pure_cycle(wa, wb, memory, payoff, rounds);
  }
  // Non-integral payoffs: replay every round through the packed walker,
  // accumulating in loop order — bitwise identical to the IpdEngine loop.
  const State mask = num_states(memory) - 1;
  const double pay_a[4] = {payoff.reward, payoff.sucker, payoff.temptation,
                           payoff.punishment};
  const double pay_b[4] = {payoff.reward, payoff.temptation, payoff.sucker,
                           payoff.punishment};
  GameResult res;
  res.rounds = rounds;
  State sa = StateCodec::initial();
  State sb = StateCodec::initial();
  for (std::uint32_t t = 0; t < rounds; ++t) {
    const std::uint64_t ba = (wa[sa >> 6] >> (sa & 63)) & 1u;
    const std::uint64_t bb = (wb[sb >> 6] >> (sb & 63)) & 1u;
    const std::uint64_t o = 2 * ba + bb;
    res.payoff_a += pay_a[o];
    res.payoff_b += pay_b[o];
    res.coop_a += static_cast<std::uint32_t>(1 - ba);
    res.coop_b += static_cast<std::uint32_t>(1 - bb);
    sa = static_cast<State>(((sa << 2) | o) & mask);
    sb = static_cast<State>(((sb << 2) | (2 * bb + ba)) & mask);
  }
  return res;
}

}  // namespace

GameResult exact_pure_game_fast(const PureStrategy& a, const PureStrategy& b,
                                const PayoffMatrix& payoff,
                                std::uint32_t rounds) {
  EGT_REQUIRE(a.memory() == b.memory());
  EGT_REQUIRE(rounds > 0);
  return walk_pure_cycle(a.table().words().data(), b.table().words().data(),
                         a.memory(), payoff, rounds);
}

GameResult run_pure_game(const PureStrategy& a, const PureStrategy& b,
                         const PayoffMatrix& payoff, std::uint32_t rounds) {
  EGT_REQUIRE(a.memory() == b.memory());
  EGT_REQUIRE(rounds > 0);
  return run_pure_tables(a.table().words().data(), b.table().words().data(),
                         a.memory(), payoff, rounds);
}

// -- sampled lane kernel ------------------------------------------------------

Player Player::of(const Strategy& s) {
  EGT_REQUIRE_MSG(!s.is_nway(),
                  "n-way strategies play via the spec engine, not Move");
  return s.is_pure() ? of(s.as_pure()) : of(s.as_mixed());
}

std::uint64_t unit_threshold(double p) noexcept {
  // p * 2^53 only shifts the exponent, so it is exact; k * 2^-53 < p for an
  // integer k < 2^53 holds exactly when k < ceil(p * 2^53).
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

void MirrorTables::set(std::size_t k, const PureStrategy& s) {
  const std::size_t end = words_ * (k + 1);
  if (tables_.size() < end) tables_.resize(end, 0);
  // t marks the bits p of mask m whose partner p + d differs; flipping
  // both exchanges them.
  const auto delta_swap = [](std::uint64_t x, std::uint64_t m, int d) {
    const std::uint64_t t = ((x >> d) ^ x) & m;
    return x ^ t ^ (t << d);
  };
  const std::uint64_t* words = s.table().words().data();
  std::uint64_t* out = tables_.data() + end - words_;
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t x = words[swap_pairs(static_cast<State>(w))];
    x = delta_swap(x, 0x2222222222222222ULL, 1);   // index bits 0 <-> 1
    x = delta_swap(x, 0x00f000f000f000f0ULL, 4);   // index bits 2 <-> 3
    x = delta_swap(x, 0x00000000ffff0000ULL, 16);  // index bits 4 <-> 5
    out[w] = x;
  }
}

#if !defined(EGT_SIMD_AVX2)
void play_stream_avx2(const StreamLanes&, std::size_t, LaneTotals*) {
  EGT_REQUIRE_MSG(false, "AVX2 sampled kernel not compiled in (EGT_SIMD=OFF)");
}
void play_stream_avx512(const StreamLanes&, std::size_t, LaneTotals*) {
  EGT_REQUIRE_MSG(false,
                  "AVX-512 sampled kernel not compiled in (EGT_SIMD=OFF)");
}
void play_stream_avx2(const StreamLanes&, std::size_t, double*) {
  EGT_REQUIRE_MSG(false, "AVX2 sampled kernel not compiled in (EGT_SIMD=OFF)");
}
void play_stream_avx512(const StreamLanes&, std::size_t, double*) {
  EGT_REQUIRE_MSG(false,
                  "AVX-512 sampled kernel not compiled in (EGT_SIMD=OFF)");
}
#endif

void play_stream_scalar(const StreamLanes& in, std::size_t n,
                        LaneTotals* out) {
  stream_batch<ScalarLane>(in, n, out);
}

void play_stream_scalar(const StreamLanes& in, std::size_t n, double* out) {
  stream_batch<ScalarLane>(in, n, out);
}

namespace {

/// The games of one call grouped by player kind, 2 * mixed_a + mixed_b
/// (lanes of one group share a draw layout); slot[kind][k] is the call's
/// index of games[kind][k].
struct KindGroups {
  std::vector<LaneGame> games[4];
  std::vector<std::uint32_t> slot[4];

  void clear() {
    for (int kind = 0; kind < 4; ++kind) {
      games[kind].clear();
      slot[kind].clear();
    }
  }
  /// Game k (a StreamGame or a PayoffGame).
  template <class Game>
  void add(const Game& g, std::size_t k) {
    const int kind = 2 * (coop(g.a) != nullptr) + (coop(g.b) != nullptr);
    games[kind].push_back({address(g.a), address(g.b), g.rng.origin()});
    slot[kind].push_back(static_cast<std::uint32_t>(k));
  }

 private:
  static const double* coop(const Player& p) { return p.coop; }
  static const double* coop(const MirroredPlayer& p) { return p.coop(); }
  static const std::uint64_t* words(const Player& p) { return p.bits; }
  static const std::uint64_t* words(const MirroredPlayer& p) {
    return p.mirror();
  }
  /// A mixed side's coop[], or a pure side's move words (a pure B of a
  /// PayoffGame: its mirror).
  template <class P>
  static std::uintptr_t address(const P& p) {
    return coop(p) != nullptr ? reinterpret_cast<std::uintptr_t>(coop(p))
                              : reinterpret_cast<std::uintptr_t>(words(p));
  }
};

void check_lanes(int memory, const IpdParams& params, int lanes) {
  EGT_REQUIRE(memory >= 0 && memory <= kMaxMemory);
  EGT_REQUIRE(params.rounds > 0);
  EGT_REQUIRE_MSG(lanes == 1 || lanes == 8 || lanes == 16,
                  "sampled kernel width must be 1, 8 or 16 games");
}

/// The kernel's parameters of a call, before its games and kind are set.
StreamLanes lane_params(int memory, const IpdParams& params) {
  const PayoffMatrix& m = params.payoff;
  StreamLanes in;
  in.noise_threshold = unit_threshold(params.noise);
  in.pay_a[0] = m.reward;
  in.pay_a[1] = m.sucker;
  in.pay_a[2] = m.temptation;
  in.pay_a[3] = m.punishment;
  in.pay_b[0] = m.reward;
  in.pay_b[1] = m.temptation;
  in.pay_b[2] = m.sucker;
  in.pay_b[3] = m.punishment;
  in.rounds = params.rounds;
  in.state_mask = num_states(memory) - 1;
  return in;
}

/// Group `kind` of `groups` through the kernel at width `lanes` into out.
template <class Out>
void run_kind(StreamLanes& in, const KindGroups& groups, int kind,
              int lanes, Out* out) {
  const std::size_t n = groups.games[kind].size();
  in.games = groups.games[kind].data();
  in.mixed_a = kind >= 2;
  in.mixed_b = kind % 2 == 1;
  if (lanes == 16) {
    play_stream_avx512(in, n, out);
  } else if (lanes == 8) {
    play_stream_avx2(in, n, out);
  } else {
    play_stream_scalar(in, n, out);
  }
}

}  // namespace

void play_stream_games_lanes(std::span<const StreamGame> games, int memory,
                             const IpdParams& params, int lanes,
                             std::span<GameResult> out) {
  EGT_REQUIRE(out.size() >= games.size());
  check_lanes(memory, params, lanes);
  thread_local KindGroups groups;
  thread_local std::vector<LaneTotals> totals;
  groups.clear();
  bool drawn = false;
  for (std::size_t k = 0; k < games.size(); ++k) {
    const StreamGame& g = games[k];
    if (g.a.coop == nullptr && g.b.coop == nullptr && params.noise == 0.0) {
      // Deterministic game: the cycle walker, which draws nothing.
      out[k] = run_pure_tables(g.a.bits, g.b.bits, memory, params.payoff,
                               params.rounds);
      continue;
    }
    groups.add(g, k);
    drawn = true;
  }
  if (!drawn) return;
  StreamLanes in = lane_params(memory, params);
  for (int kind = 0; kind < 4; ++kind) {
    const std::size_t n = groups.games[kind].size();
    if (n == 0) continue;
    if (totals.size() < n) totals.resize(n);
    run_kind(in, groups, kind, lanes, totals.data());
    for (std::size_t k = 0; k < n; ++k) {
      const LaneTotals& t = totals[k];
      GameResult& res = out[groups.slot[kind][k]];
      res.rounds = params.rounds;
      res.payoff_a = t.pay_a;
      res.payoff_b = t.pay_b;
      res.coop_a = params.rounds - static_cast<std::uint32_t>(t.defects);
      res.coop_b = params.rounds - static_cast<std::uint32_t>(t.defects >> 32);
    }
  }
}

void play_stream_games(std::span<const StreamGame> games, int memory,
                       const IpdParams& params, std::span<GameResult> out) {
  play_stream_games_lanes(games, memory, params, simd::stream_lanes(), out);
}

void payoff_stream_games_lanes(std::span<const PayoffGame> games, int memory,
                               const IpdParams& params, int lanes,
                               std::span<double> out) {
  EGT_REQUIRE(out.size() >= games.size());
  check_lanes(memory, params, lanes);
  if (games.empty()) return;
  thread_local KindGroups groups;
  thread_local std::vector<double> pays;
  groups.clear();
  for (std::size_t k = 0; k < games.size(); ++k) groups.add(games[k], k);
  StreamLanes in = lane_params(memory, params);
  for (int kind = 0; kind < 4; ++kind) {
    const std::size_t n = groups.games[kind].size();
    if (n == 0) continue;
    if (pays.size() < n) pays.resize(n);
    run_kind(in, groups, kind, lanes, pays.data());
    for (std::size_t k = 0; k < n; ++k) out[groups.slot[kind][k]] = pays[k];
  }
}

void payoff_stream_games(std::span<const PayoffGame> games, int memory,
                         const IpdParams& params, std::span<double> out) {
  payoff_stream_games_lanes(games, memory, params, simd::stream_lanes(), out);
}

}  // namespace egt::game::batch
