// simcheck: differential fuzzing, replay and statistical validation.
//
// Modes (first match wins):
//   --self-test        inject a broken dedup copy, expect catch + shrink
//   --replay FILE      re-run a repro JSON, checking the recorded trace
//   --stats            statistical suite only
//   --stats-preset G   single full-budget mean-field trajectory check of
//                      registry preset G (nightly per-preset sweep)
//   --kernels          cross-validate the batch fitness kernels (AVX2 vs
//                      scalar at 1e-12 relative, walkers bitwise)
//   (default)          fuzz: sample --seeds configs from --start, run every
//                      applicable engine pair, shrink failures (--shrink)
//                      and write runnable repro JSONs under --out
//
// Exit status: 0 all green, 1 mismatches/failed checks, 2 usage or I/O.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "game/simd.hpp"
#include "simcheck/case.hpp"
#include "simcheck/kernels.hpp"
#include "simcheck/repro.hpp"
#include "simcheck/selftest.hpp"
#include "simcheck/shrink.hpp"
#include "simcheck/stats.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace egt;

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void append_counter_entries(util::JsonWriter& w, std::uint64_t case_seed,
                            const char* engine,
                            const simcheck::EngineOutcome& outcome,
                            bool games_comparable) {
  w.begin_object();
  w.field("case_seed", case_seed);
  w.field("engine", engine);
  w.field("pairs_evaluated", outcome.counters.pairs_evaluated);
  w.field("games_played", outcome.counters.games_played);
  w.field("comparable", outcome.counters_comparable);
  // games_played is partition-dependent under dedup (each rank reuses
  // values only from its own rows); bench_check --cross skips the games
  // diff when false.
  w.field("games_comparable", games_comparable);
  w.end_object();
}

int run_self_test(std::uint64_t seed) {
  const auto result = simcheck::run_self_test(seed);
  std::cout << "self-test: injected off-by-one "
            << (result.caught ? "caught" : "MISSED") << ", shrunk to "
            << result.final_ssets << " SSets / " << result.final_generations
            << " generations\n";
  if (!result.detail.empty()) std::cout << "  " << result.detail << "\n";
  if (!result.passed()) {
    std::cerr << "self-test FAILED (need caught + shrunk to <= 4 SSets)\n";
    return 1;
  }
  std::cout << "self-test: ok\n";
  return 0;
}

int run_replay(const std::string& path) {
  const auto replay = simcheck::replay_repro(read_file(path));
  for (const auto& f : replay.result.failures) {
    std::cout << "replayed failure [" << simcheck::engine_kind_name(f.engine)
              << "]: " << f.what << "\n";
  }
  if (replay.recorded_divergence) {
    std::cerr << "replay: fresh reference trace diverges from the recorded "
                 "one at generation "
              << replay.recorded_divergence->generation << ": "
              << replay.recorded_divergence->detail << "\n";
    return 1;
  }
  if (replay.result.passed()) {
    std::cout << "replay: case passes on this build (bug fixed or "
                 "environment-dependent)\n";
    return 0;
  }
  std::cout << "replay: reproduced " << replay.result.failures.size()
            << " failure(s) deterministically\n";
  return 0;
}

int run_stats(std::uint64_t seed, bool quick) {
  const auto report = simcheck::run_statistical_suite(seed, quick);
  int failures = 0;
  for (const auto& c : report.checks) {
    std::cout << (c.passed ? "ok   " : "FAIL ") << "[" << c.name
              << "]: observed " << c.observed << " in [" << c.expected_lo
              << ", " << c.expected_hi << "] — " << c.detail << "\n";
    if (!c.passed) ++failures;
  }
  if (failures > 0) {
    std::cerr << "stats: " << failures << " observable(s) outside the 99% "
              << "confidence region\n";
    return 1;
  }
  std::cout << "stats: all " << report.checks.size() << " observables ok\n";
  return 0;
}

int run_stats_preset(const std::string& preset, std::uint64_t seed,
                     bool quick) {
  const auto c =
      simcheck::check_replicator_trajectory(preset, seed, quick);
  std::cout << (c.passed ? "ok   " : "FAIL ") << "[" << c.name
            << "]: observed " << c.observed << " in [" << c.expected_lo
            << ", " << c.expected_hi << "] — " << c.detail << "\n";
  if (!c.passed) {
    std::cerr << "stats-preset: " << preset
              << " outside the 99% confidence region\n";
    return 1;
  }
  return 0;
}

int run_kernels(std::uint64_t seed) {
  const auto report = simcheck::run_kernel_checks(seed);
  std::cout << "kernels: avx2 "
            << (report.avx2_available ? "available" : "unavailable")
            << ", avx512 "
            << (report.avx512_available ? "available" : "unavailable")
            << ", dispatching "
            << game::simd::kernel_name(game::simd::active_kernel())
            << (game::simd::force_scalar() ? " (forced)" : "")
            << ", mem1_lanes " << game::simd::mem1_lanes()
            << ", stream_lanes " << game::simd::stream_lanes() << "\n";
  int failures = 0;
  for (const auto& c : report.checks) {
    std::cout << (c.passed ? "ok   " : "FAIL ") << "[" << c.name << "]: "
              << c.cases << " case(s)";
    if (!c.detail.empty()) std::cout << " — " << c.detail;
    std::cout << "\n";
    if (!c.passed) ++failures;
  }
  if (failures > 0) {
    std::cerr << "kernels: " << failures << " check(s) FAILED\n";
    return 1;
  }
  std::cout << "kernels: all checks ok\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("simcheck",
                "differential fuzzing, trace replay and statistical "
                "validation of the EGT engines");
  auto seeds = cli.opt<std::uint64_t>("seeds", 16, "fuzz seeds to run");
  auto start = cli.opt<std::uint64_t>("start", 1, "first fuzz seed");
  auto shrink = cli.flag("shrink", "delta-debug failing configs before "
                                   "writing the repro");
  auto out_dir = cli.opt<std::string>("out", ".",
                                      "directory for failing repro JSONs");
  auto counters_out = cli.opt<std::string>(
      "counters-out", "",
      "write an egt.simcheck_counters/v1 cross-engine counter document");
  auto replay_path =
      cli.opt<std::string>("replay", "", "re-run a repro JSON and exit");
  auto self_test = cli.flag("self-test", "run the broken-dedup self test");
  auto kernels = cli.flag("kernels", "cross-validate the batch fitness "
                                     "kernels (AVX2 vs scalar)");
  auto stats = cli.flag("stats", "run the statistical validation suite");
  auto stats_preset = cli.opt<std::string>(
      "stats-preset", "",
      "run only the mean-field trajectory check for one registry preset");
  auto stats_seed =
      cli.opt<std::uint64_t>("stats-seed", 20120427, "statistical suite seed");
  auto quick = cli.flag("quick", "shrink the statistical Monte-Carlo "
                                 "budgets ~5x (CI smoke)");
  cli.parse(argc, argv);

  try {
    if (*self_test) return run_self_test(*stats_seed);
    if (*kernels) return run_kernels(*stats_seed);
    if (!replay_path->empty()) return run_replay(*replay_path);
    if (!stats_preset->empty()) {
      return run_stats_preset(*stats_preset, *stats_seed, *quick);
    }
    if (*stats) return run_stats(*stats_seed, *quick);

    std::ostringstream counters;
    util::JsonWriter counters_writer(counters, 2);
    counters_writer.begin_object();
    counters_writer.field("schema", "egt.simcheck_counters/v1");
    counters_writer.key("entries").begin_array();

    int failing_cases = 0;
    for (std::uint64_t i = 0; i < *seeds; ++i) {
      const std::uint64_t fuzz_seed = *start + i;
      auto spec = simcheck::sample_case(fuzz_seed);
      auto result = simcheck::run_case(spec);

      const bool dedup_active =
          spec.config.dedup &&
          spec.config.fitness_mode == core::FitnessMode::Analytic;
      append_counter_entries(counters_writer, fuzz_seed, "serial",
                             result.reference, /*games_comparable=*/true);
      for (const auto& [kind, outcome] : result.outcomes) {
        const bool multi_rank =
            kind == simcheck::EngineKind::Parallel ||
            kind == simcheck::EngineKind::ParallelReplicated ||
            kind == simcheck::EngineKind::ParallelFt ||
            kind == simcheck::EngineKind::ParallelFtFaulty;
        append_counter_entries(counters_writer, fuzz_seed,
                               simcheck::engine_kind_name(kind), outcome,
                               !(dedup_active && multi_rank));
      }

      if (result.passed()) {
        std::cout << "seed " << fuzz_seed << ": ok ("
                  << result.outcomes.size() << " variant(s))\n";
        continue;
      }
      ++failing_cases;
      for (const auto& f : result.failures) {
        std::cout << "seed " << fuzz_seed << ": FAIL ["
                  << simcheck::engine_kind_name(f.engine) << "] " << f.what
                  << "\n";
      }
      if (*shrink) {
        const auto shrunk = simcheck::shrink_case(spec);
        std::cout << "seed " << fuzz_seed << ": shrunk to "
                  << shrunk.spec.config.ssets << " SSets / "
                  << shrunk.spec.config.generations << " generations ("
                  << shrunk.attempts << " attempts)\n";
        result = shrunk.result;
      }
      const auto path = std::filesystem::path(*out_dir) /
                        ("simcheck_repro_" + std::to_string(fuzz_seed) +
                         ".json");
      std::ofstream os(path);
      if (!os) throw std::runtime_error("cannot write " + path.string());
      os << simcheck::repro_to_json(result) << "\n";
      std::cout << "seed " << fuzz_seed << ": repro written to "
                << path.string() << "\n";
    }

    counters_writer.end_array();
    counters_writer.end_object();
    if (!counters_out->empty()) {
      std::ofstream os(*counters_out);
      if (!os) throw std::runtime_error("cannot write " + *counters_out);
      os << counters.str() << "\n";
    }

    if (failing_cases > 0) {
      std::cerr << failing_cases << "/" << *seeds << " fuzz case(s) FAILED\n";
      return 1;
    }
    std::cout << "simcheck: " << *seeds << " fuzz case(s) ok\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "simcheck: " << e.what() << "\n";
    return 2;
  }
}
