#include "simcheck/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "game/batch.hpp"
#include "game/ipd.hpp"
#include "game/markov.hpp"
#include "game/payoff.hpp"
#include "game/simd.hpp"
#include "game/strategy.hpp"
#include "util/rng.hpp"

namespace egt::simcheck {

namespace {

constexpr double kCrossKernelTol = 1e-12;  // AVX2 vs scalar, relative

double rel_err(double got, double want) {
  const double scale = std::max(1.0, std::fabs(want));
  return std::fabs(got - want) / scale;
}

void note_failure(KernelCheck& c, const std::string& what) {
  if (c.detail.empty()) c.detail = what;
  c.passed = false;
}

game::PayoffMatrix sample_payoff(util::Xoshiro256& rng, bool integral) {
  if (integral) return game::paper_payoff();
  return game::PayoffMatrix{3.0 + util::uniform01(rng),
                            -util::uniform01(rng),
                            4.0 + util::uniform01(rng),
                            util::uniform01(rng)};
}

/// AVX2 vs scalar on random mixed/pure batches (skipped when the AVX2
/// kernel is unavailable), plus scalar vs markov bit-identity.
void check_mem1(KernelReport& report, util::Xoshiro256& rng) {
  KernelCheck cross{"mem1.avx2_vs_scalar", true, 0, 0.0, {}};
  KernelCheck exact{"mem1.scalar_vs_markov_bitwise", true, 0, 0.0, {}};
  const bool avx2 = report.avx2_available;

  for (int iter = 0; iter < 64; ++iter) {
    const std::size_t n = 1 + util::uniform_below(rng, 9);  // remainder lanes
    const double eps = (iter % 3 == 0) ? 0.0 : 0.25 * util::uniform01(rng);
    const game::PayoffMatrix payoff = sample_payoff(rng, iter % 2 == 0);
    const auto rounds =
        static_cast<std::uint32_t>(1 + util::uniform_below(rng, 400));

    game::batch::Mem1Batch batch;
    std::vector<game::Strategy> as, bs;
    for (std::size_t k = 0; k < n; ++k) {
      // Mix pure and mixed memory-one strategies in one batch.
      if (util::uniform_below(rng, 4) == 0) {
        as.emplace_back(game::PureStrategy::random(1, rng));
      } else {
        as.emplace_back(game::MixedStrategy::random(1, rng));
      }
      bs.emplace_back(game::MixedStrategy::random(1, rng));
      batch.push_pair(as.back(), bs.back(), eps);
    }

    std::vector<game::batch::BatchTotals> sca(n);
    game::batch::expected_totals_mem1_scalar(batch, payoff, rounds,
                                             sca.data());
    for (std::size_t k = 0; k < n; ++k) {
      const game::GameResult want = game::markov::expected_game_mem1(
          as[k], bs[k], payoff, rounds, eps);
      exact.cases++;
      if (sca[k].payoff_a != want.payoff_a ||
          sca[k].payoff_b != want.payoff_b) {
        std::ostringstream os;
        os << "scalar kernel diverges from markov at iter " << iter
           << " pair " << k << ": " << sca[k].payoff_a
           << " != " << want.payoff_a;
        note_failure(exact, os.str());
      }
    }
    if (!avx2) continue;
    std::vector<game::batch::BatchTotals> avx(n);
    game::batch::expected_totals_mem1_avx2(batch, payoff, rounds, avx.data());
    for (std::size_t k = 0; k < n; ++k) {
      cross.cases++;
      const double worst = std::max(
          {rel_err(avx[k].payoff_a, sca[k].payoff_a),
           rel_err(avx[k].payoff_b, sca[k].payoff_b),
           rel_err(avx[k].coop_a, sca[k].coop_a),
           rel_err(avx[k].coop_b, sca[k].coop_b)});
      cross.worst_rel = std::max(cross.worst_rel, worst);
      if (worst > kCrossKernelTol) {
        std::ostringstream os;
        os << "avx2 vs scalar rel err " << worst << " > " << kCrossKernelTol
           << " at iter " << iter << " pair " << k;
        note_failure(cross, os.str());
      }
    }
  }
  if (cross.detail.empty()) {
    std::ostringstream os;
    if (avx2) {
      os << "worst rel err " << cross.worst_rel;
    } else {
      os << "skipped: AVX2 kernel unavailable";
    }
    cross.detail = os.str();
  }
  report.checks.push_back(std::move(cross));
  report.checks.push_back(std::move(exact));
}

/// The payoff-only kernel at every width this build and CPU have (1, 8,
/// 16 pairs in flight) vs the payoff_a of the totals kernel it mirrors
/// (scalar totals for width 1, AVX2 totals otherwise), bitwise; each pair
/// also alone, as a batch of one.
void check_mem1_payoff(KernelReport& report, util::Xoshiro256& rng) {
  constexpr std::uint32_t kRounds[] = {1, 2, 3, 7, 199, 200, 1000};
  constexpr double kNoise[] = {0.0, 0.02, 0.25};
  std::vector<int> widths{1};
  if (report.avx2_available) widths.push_back(8);
  if (report.avx512_available) widths.push_back(16);
  for (const int lanes : widths) {
    KernelCheck c{"mem1.payoff_vs_totals_bitwise." + std::to_string(lanes),
                  true, 0, 0.0, {}};
    for (int iter = 0; iter < 48 && c.passed; ++iter) {
      const std::size_t n = util::uniform_below(rng, 41);  // 0..40 pairs
      const double eps = kNoise[util::uniform_below(rng, 3)];
      const std::uint32_t rounds = kRounds[util::uniform_below(rng, 7)];
      const game::PayoffMatrix payoff = sample_payoff(rng, iter % 2 == 0);
      game::batch::Mem1Batch batch;
      std::vector<game::batch::Mem1Batch> solo(n);
      for (std::size_t k = 0; k < n; ++k) {
        const game::Strategy a =
            util::uniform_below(rng, 4) == 0
                ? game::Strategy(game::PureStrategy::random(1, rng))
                : game::Strategy(game::MixedStrategy::random(1, rng));
        const game::Strategy b = game::MixedStrategy::random(1, rng);
        batch.push_pair(a, b, eps);
        solo[k].push_pair(a, b, eps);
      }
      std::vector<game::batch::BatchTotals> want(n);
      if (lanes == 1) {
        game::batch::expected_totals_mem1_scalar(batch, payoff, rounds,
                                                 want.data());
      } else {
        game::batch::expected_totals_mem1_avx2(batch, payoff, rounds,
                                               want.data());
      }
      std::vector<double> got(n);
      game::batch::expected_payoff_mem1_lanes(batch, payoff, rounds, lanes,
                                              got.data());
      for (std::size_t k = 0; k < n; ++k) {
        double one = 0.0;
        game::batch::expected_payoff_mem1_lanes(solo[k], payoff, rounds,
                                                lanes, &one);
        c.cases++;
        const auto bits = std::bit_cast<std::uint64_t>(got[k]);
        if (bits != std::bit_cast<std::uint64_t>(want[k].payoff_a) ||
            bits != std::bit_cast<std::uint64_t>(one)) {
          std::ostringstream os;
          os << "payoff kernel differs from totals at iter " << iter
             << " pair " << k << " (batch " << n << ", rounds " << rounds
             << ", noise " << eps << "): " << got[k] << " vs "
             << want[k].payoff_a << ", alone " << one;
          note_failure(c, os.str());
          break;
        }
      }
    }
    report.checks.push_back(std::move(c));
  }
}

/// Pure walkers vs markov::exact_pure_game / the legacy round loop —
/// bitwise, across memory depths and round counts.
void check_pure(KernelReport& report, util::Xoshiro256& rng) {
  KernelCheck walker{"pure.walker_vs_markov_bitwise", true, 0, 0.0, {}};
  KernelCheck sampled{"pure.run_vs_round_loop_bitwise", true, 0, 0.0, {}};

  for (int iter = 0; iter < 64; ++iter) {
    const int memory = static_cast<int>(util::uniform_below(rng, 4));
    const auto rounds =
        static_cast<std::uint32_t>(1 + util::uniform_below(rng, 1000));
    const game::PayoffMatrix payoff = sample_payoff(rng, iter % 2 == 0);
    const game::PureStrategy a = game::PureStrategy::random(memory, rng);
    const game::PureStrategy b = game::PureStrategy::random(memory, rng);

    const game::GameResult want =
        game::markov::exact_pure_game(a, b, payoff, rounds);
    const game::GameResult got =
        game::batch::exact_pure_game_fast(a, b, payoff, rounds);
    walker.cases++;
    if (got.payoff_a != want.payoff_a || got.payoff_b != want.payoff_b ||
        got.coop_a != want.coop_a || got.coop_b != want.coop_b) {
      std::ostringstream os;
      os << "walker diverges from exact_pure_game at iter " << iter
         << " (memory " << memory << ", rounds " << rounds << ")";
      note_failure(walker, os.str());
    }

    // The LinearSearch engine still runs the legacy loop (no fast path).
    const game::IpdParams params{payoff, rounds, 0.0};
    const game::IpdEngine linear(memory, params,
                                 game::LookupMode::LinearSearch);
    const game::GameResult loop = linear.play(a, b, util::StreamRng(0, 0));
    const game::GameResult fast =
        game::batch::run_pure_game(a, b, payoff, rounds);
    sampled.cases++;
    if (fast.payoff_a != loop.payoff_a || fast.payoff_b != loop.payoff_b ||
        fast.coop_a != loop.coop_a || fast.coop_b != loop.coop_b) {
      std::ostringstream os;
      os << "run_pure_game diverges from the round loop at iter " << iter
         << " (memory " << memory << ", rounds " << rounds << ")";
      note_failure(sampled, os.str());
    }
  }
  report.checks.push_back(std::move(walker));
  report.checks.push_back(std::move(sampled));
}

bool same_game(const game::GameResult& x, const game::GameResult& y) {
  return x.payoff_a == y.payoff_a && x.payoff_b == y.payoff_b &&
         x.coop_a == y.coop_a && x.coop_b == y.coop_b && x.rounds == y.rounds;
}

/// Game k of as/bs on a random stream that has already made 0-2 draws
/// (the kernel must read it from its current position).
std::vector<game::batch::StreamGame> stream_games(
    const std::vector<game::Strategy>& as,
    const std::vector<game::Strategy>& bs, util::Xoshiro256& rng) {
  std::vector<game::batch::StreamGame> games;
  for (std::size_t k = 0; k < as.size(); ++k) {
    util::StreamRng stream(rng(), rng());
    for (std::uint64_t skip = util::uniform_below(rng, 3); skip > 0; --skip) {
      stream();
    }
    games.push_back({game::batch::Player::of(as[k]),
                     game::batch::Player::of(bs[k]), stream});
  }
  return games;
}

/// Sampled lane kernel vs the LinearSearch round loop, bitwise, under the
/// active and the forced-scalar kernel.
void check_sampled(KernelReport& report, util::Xoshiro256& rng) {
  KernelCheck lanes{"sampled.lanes_vs_round_loop_bitwise", true, 0, 0.0, {}};
  constexpr double kNoise[] = {0.0, 0.02, 0.5, 1.0};
  constexpr std::uint32_t kRounds[] = {1, 63, 64, 65, 200, 1000};
  const bool forced = game::simd::force_scalar();

  for (int iter = 0; iter < 48; ++iter) {
    const int memory =
        static_cast<int>(util::uniform_below(rng, game::kMaxMemory + 1));
    const double noise = kNoise[util::uniform_below(rng, 4)];
    std::uint32_t rounds = kRounds[util::uniform_below(rng, 6)];
    // The loop's linear state scan is O(4^memory) per round.
    if (memory >= 5) rounds = std::min(rounds, 200u);
    const game::IpdParams params{sample_payoff(rng, iter % 2 == 0), rounds,
                                 noise};
    const std::size_t n = 1 + util::uniform_below(rng, 17);  // remainders
    std::vector<game::Strategy> as, bs;
    for (std::size_t k = 0; k < n; ++k) {
      for (auto* side : {&as, &bs}) {
        if (util::uniform_below(rng, 2) == 0) {
          side->emplace_back(game::PureStrategy::random(memory, rng));
        } else {
          side->emplace_back(game::MixedStrategy::random(memory, rng));
        }
      }
    }
    const std::vector<game::batch::StreamGame> games =
        stream_games(as, bs, rng);
    const game::IpdEngine loop(memory, params, game::LookupMode::LinearSearch);
    for (const bool scalar : {false, true}) {
      game::simd::set_force_scalar(forced || scalar);
      std::vector<game::GameResult> got(n);
      game::batch::play_stream_games(games, memory, params, got);
      for (std::size_t k = 0; k < n; ++k) {
        lanes.cases++;
        if (!same_game(got[k], loop.play(as[k], bs[k], games[k].rng))) {
          std::ostringstream os;
          os << "lane kernel diverges from the round loop at iter " << iter
             << " game " << k << " (memory " << memory << ", noise " << noise
             << ", rounds " << rounds << ", batch " << n
             << (scalar ? ", forced scalar)" : ")");
          note_failure(lanes, os.str());
        }
      }
    }
    game::simd::set_force_scalar(forced);
  }
  report.checks.push_back(std::move(lanes));
}

/// The sampled kernel at every width this build and CPU have (1, 8, 16
/// games in flight) vs the LinearSearch round loop, bitwise, and each game
/// alone vs the same game inside the batch. Batch sizes cycle through
/// 1..40, so every full-group and remainder shape of each width runs, with
/// all four player kinds (all-pure, all-mixed, each side mixed, and mixes
/// of them).
void check_sampled_widths(KernelReport& report, util::Xoshiro256& rng) {
  constexpr double kNoise[] = {0.0, 0.02, 0.5, 1.0};
  constexpr std::uint32_t kRounds[] = {1, 63, 64, 65, 200, 1000};
  std::vector<int> widths{1};
  if (report.avx2_available) widths.push_back(8);
  if (report.avx512_available) widths.push_back(16);
  std::vector<KernelCheck> checks;
  for (const int lanes : widths) {
    checks.push_back({"sampled.lanes_vs_round_loop_bitwise." +
                          std::to_string(lanes),
                      true, 0, 0.0, {}});
  }
  for (int iter = 0; iter < 80; ++iter) {
    const std::size_t n = 1 + static_cast<std::size_t>(iter) % 40;
    const int kind = iter % 5;  // 0-3: one player kind; 4: any per game
    const int memory =
        static_cast<int>(util::uniform_below(rng, game::kMaxMemory + 1));
    const double noise = kNoise[util::uniform_below(rng, 4)];
    std::uint32_t rounds = kRounds[util::uniform_below(rng, 6)];
    if (memory >= 5) rounds = std::min(rounds, 200u);
    const game::IpdParams params{sample_payoff(rng, iter % 2 == 0), rounds,
                                 noise};
    std::vector<game::Strategy> as, bs;
    for (std::size_t k = 0; k < n; ++k) {
      const int kk = kind < 4 ? kind
                              : static_cast<int>(util::uniform_below(rng, 4));
      for (auto* side : {&as, &bs}) {
        const bool mixed = side == &as ? kk >= 2 : kk % 2 == 1;
        if (mixed) {
          side->emplace_back(game::MixedStrategy::random(memory, rng));
        } else {
          side->emplace_back(game::PureStrategy::random(memory, rng));
        }
      }
    }
    const std::vector<game::batch::StreamGame> games =
        stream_games(as, bs, rng);
    const game::IpdEngine loop(memory, params, game::LookupMode::LinearSearch);
    std::vector<game::GameResult> want(n);
    for (std::size_t k = 0; k < n; ++k) {
      want[k] = loop.play(as[k], bs[k], games[k].rng);
    }
    for (std::size_t w = 0; w < widths.size(); ++w) {
      KernelCheck& c = checks[w];
      if (!c.passed) continue;
      std::vector<game::GameResult> got(n);
      game::batch::play_stream_games_lanes(games, memory, params, widths[w],
                                           got);
      for (std::size_t k = 0; k < n; ++k) {
        game::GameResult one;
        game::batch::play_stream_games_lanes({&games[k], 1}, memory, params,
                                             widths[w], {&one, 1});
        c.cases++;
        if (!same_game(got[k], want[k]) || !same_game(one, want[k])) {
          std::ostringstream os;
          os << "width " << widths[w] << " diverges from the round loop at "
             << "iter " << iter << " game " << k << " (memory " << memory
             << ", noise " << noise << ", rounds " << rounds << ", batch "
             << n << (same_game(got[k], want[k]) ? ", alone)" : ")");
          note_failure(c, os.str());
          break;
        }
      }
    }
  }
  for (auto& c : checks) report.checks.push_back(std::move(c));
}

/// The payoff-only sampled kernel at every width vs the totals kernel's
/// payoff_a at that width, bitwise. Batch sizes cycle through 0..40 over
/// all four player kinds, memory 0-6 and noise {0, 0.02, 0.5, 1}.
void check_stream_payoff_widths(KernelReport& report, util::Xoshiro256& rng) {
  constexpr double kNoise[] = {0.0, 0.02, 0.5, 1.0};
  constexpr std::uint32_t kRounds[] = {1, 2, 7, 64, 200};
  std::vector<int> widths{1};
  if (report.avx2_available) widths.push_back(8);
  if (report.avx512_available) widths.push_back(16);
  std::vector<KernelCheck> checks;
  for (const int lanes : widths) {
    checks.push_back({"stream.payoff_vs_totals_bitwise." +
                          std::to_string(lanes),
                      true, 0, 0.0, {}});
  }
  for (int iter = 0; iter < 82; ++iter) {
    const std::size_t n = static_cast<std::size_t>(iter) % 41;
    // Each kind meets both integral and fractional payoffs.
    const int kind = iter % 4;
    const bool integral = iter / 4 % 2 == 0;
    const int memory =
        static_cast<int>(util::uniform_below(rng, game::kMaxMemory + 1));
    const game::IpdParams params{sample_payoff(rng, integral),
                                 kRounds[util::uniform_below(rng, 5)],
                                 kNoise[util::uniform_below(rng, 4)]};
    std::vector<game::Strategy> as, bs;
    for (std::size_t k = 0; k < n; ++k) {
      for (auto* side : {&as, &bs}) {
        const bool mixed = side == &as ? kind >= 2 : kind % 2 == 1;
        if (mixed) {
          side->emplace_back(game::MixedStrategy::random(memory, rng));
        } else {
          side->emplace_back(game::PureStrategy::random(memory, rng));
        }
      }
    }
    const std::vector<game::batch::StreamGame> games =
        stream_games(as, bs, rng);
    // The payoff-only kernel reads a pure B through its mirrored table.
    game::batch::MirrorTables mirrors(memory);
    for (std::size_t k = 0; k < n; ++k) {
      if (bs[k].is_pure()) mirrors.set(k, bs[k].as_pure());
    }
    std::vector<game::batch::PayoffGame> mirrored;
    for (std::size_t k = 0; k < n; ++k) {
      mirrored.push_back(
          {games[k].a,
           bs[k].is_pure() ? mirrors[k]
                           : game::batch::MirroredPlayer::of(bs[k].as_mixed()),
           games[k].rng});
    }
    for (std::size_t w = 0; w < widths.size(); ++w) {
      KernelCheck& c = checks[w];
      if (!c.passed) continue;
      std::vector<game::GameResult> want(n);
      std::vector<double> got(n);
      game::batch::play_stream_games_lanes(games, memory, params, widths[w],
                                           want);
      game::batch::payoff_stream_games_lanes(mirrored, memory, params,
                                             widths[w], got);
      for (std::size_t k = 0; k < n; ++k) {
        c.cases++;
        if (std::bit_cast<std::uint64_t>(got[k]) !=
            std::bit_cast<std::uint64_t>(want[k].payoff_a)) {
          std::ostringstream os;
          os << "width " << widths[w] << " payoff-only diverges from the "
             << "totals kernel at iter " << iter << " game " << k
             << " (memory " << memory << ", noise " << params.noise
             << ", rounds " << params.rounds << ", batch " << n << ")";
          note_failure(c, os.str());
          break;
        }
      }
    }
  }
  for (auto& c : checks) report.checks.push_back(std::move(c));
}

}  // namespace

KernelReport run_kernel_checks(std::uint64_t seed) {
  KernelReport report;
  report.avx2_available =
      game::simd::compiled_with_avx2() && game::simd::cpu_supports_avx2();
  report.avx512_available =
      report.avx2_available && game::simd::cpu_supports_avx512();
  util::Xoshiro256 rng(seed);
  check_mem1(report, rng);
  check_pure(report, rng);
  check_sampled(report, rng);
  check_mem1_payoff(report, rng);
  check_sampled_widths(report, rng);
  check_stream_payoff_widths(report, rng);
  return report;
}

}  // namespace egt::simcheck
