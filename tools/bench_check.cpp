// Perf-smoke gate: compare a fresh egt.bench_fitness/v1 document (written
// by bench/ablation_fitness_engine --json) against the committed baseline.
//
//   * counters (pairs_evaluated, games_played) and the final table hash
//     are deterministic — any difference is a correctness regression and
//     fails exactly;
//   * wall time is environment-dependent — a row fails only when it is past
//     the relative budget (--max-regress, default 25%) AND past the absolute
//     --noise-floor above the baseline; --min-seconds can additionally skip
//     very fast rows entirely;
//   * twin rows of the current document (the lane kernel and its
//     forced-scalar twin) must keep their wall ratio within the bound in
//     bench_check_lib.hpp's kTwinRatios — a same-run gate, so it holds on
//     any host.
// Gate policy lives in bench_check_lib.hpp and is unit-tested in
// tests/tools/.
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_check_lib.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

egt::util::JsonValue load(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  auto doc = egt::util::JsonValue::parse(buf.str());
  if (!doc.is_object() || !doc.has("schema") ||
      doc.at("schema").as_string() != "egt.bench_fitness/v1") {
    throw std::runtime_error(path + " is not an egt.bench_fitness/v1 doc");
  }
  return doc;
}

// --cross: an egt.simcheck_counters/v1 document (tools/simcheck
// --counters-out) lists engine.pairs_evaluated / engine.games_played per
// (case, engine). Every comparable variant must match its case's serial
// reference exactly — the same work-accounting gate as the bench baseline,
// but across engines within one run instead of across runs.
int check_cross(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  const auto doc = egt::util::JsonValue::parse(buf.str());
  if (!doc.is_object() || !doc.has("schema") ||
      doc.at("schema").as_string() != "egt.simcheck_counters/v1") {
    throw std::runtime_error(path +
                             " is not an egt.simcheck_counters/v1 doc");
  }

  // The serial reference of each case comes first in the entry stream.
  std::uint64_t ref_case = 0, ref_pairs = 0, ref_games = 0;
  bool have_ref = false;
  int failures = 0, compared = 0;
  for (const auto& entry : doc.at("entries").items()) {
    const auto case_seed = entry.at("case_seed").as_u64();
    const auto engine = entry.at("engine").as_string();
    const auto pairs = entry.at("pairs_evaluated").as_u64();
    const auto games = entry.at("games_played").as_u64();
    if (engine == "serial") {
      ref_case = case_seed;
      ref_pairs = pairs;
      ref_games = games;
      have_ref = true;
      continue;
    }
    if (!entry.at("comparable").as_bool()) continue;
    if (!have_ref || ref_case != case_seed) {
      std::cerr << "FAIL [case " << case_seed << "/" << engine
                << "]: no serial reference entry precedes it\n";
      ++failures;
      continue;
    }
    ++compared;
    if (pairs != ref_pairs) {
      std::cerr << "FAIL [case " << case_seed << "/" << engine
                << "]: pairs_evaluated " << pairs << " != serial "
                << ref_pairs << "\n";
      ++failures;
    }
    if (entry.has("games_comparable") &&
        !entry.at("games_comparable").as_bool()) {
      continue;  // per-rank dedup reuse makes games partition-dependent
    }
    if (games != ref_games) {
      std::cerr << "FAIL [case " << case_seed << "/" << engine
                << "]: games_played " << games << " != serial " << ref_games
                << "\n";
      ++failures;
    }
  }
  if (failures > 0) {
    std::cerr << failures << " cross-engine counter mismatch(es)\n";
    return 1;
  }
  std::cout << "bench_check --cross: " << compared
            << " engine entr(ies) match their serial reference\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace egt;
  util::Cli cli("bench_check",
                "fail when a bench_fitness run regresses vs the baseline");
  auto baseline_path = cli.opt<std::string>(
      "baseline", "BENCH_fitness.json", "committed baseline document");
  auto current_path =
      cli.opt<std::string>("current", "", "freshly produced document");
  auto max_regress = cli.opt<double>(
      "max-regress", 0.25, "tolerated relative wall-time slowdown");
  auto min_seconds = cli.opt<double>(
      "min-seconds", 0.05,
      "rows faster than this in the baseline skip the time gate");
  auto noise_floor = cli.opt<double>(
      "noise-floor", 0.005,
      "absolute wall-time slack (seconds) always tolerated on top of the "
      "relative budget — lets sub-millisecond rows be gated without timer "
      "noise tripping the ratio test");
  auto cross_path = cli.opt<std::string>(
      "cross", "",
      "diff cross-engine counters of an egt.simcheck_counters/v1 document "
      "instead of a bench baseline");
  auto trace_overhead = cli.opt<double>(
      "trace-overhead", -1.0,
      "also gate '<name> + trace' rows of --current to this relative "
      "overhead vs their untraced twin (negative = off)");
  cli.parse(argc, argv);
  if (!cross_path->empty()) {
    try {
      return check_cross(*cross_path);
    } catch (const std::exception& e) {
      std::cerr << "bench_check: " << e.what() << "\n";
      return 2;
    }
  }
  if (current_path->empty()) {
    std::cerr << "--current is required\n";
    return 2;
  }

  int failures = 0;
  try {
    const auto baseline = load(*baseline_path);
    const auto current = load(*current_path);
    bench::TimeGate gate;
    gate.max_regress = *max_regress;
    gate.min_seconds = *min_seconds;
    gate.noise_floor = *noise_floor;
    if (*trace_overhead >= 0.0) {
      failures += bench::check_trace_overhead(current, *trace_overhead, gate);
    }
    failures += bench::check_twin_ratios(current);
    failures += bench::check_baseline(baseline, current, gate);
  } catch (const std::exception& e) {
    std::cerr << "bench_check: " << e.what() << "\n";
    return 2;
  }
  if (failures > 0) {
    std::cerr << failures << " regression(s)\n";
    return 1;
  }
  std::cout << "bench_check: no regressions\n";
  return 0;
}
