// trace_report: offline analysis of a flight-recorder trace
// (egt.trace/v1 Chrome trace-event JSON written by --trace-out).
//
//   trace_report --trace run.trace.json             # breakdown report
//   trace_report --trace run.trace.json --top 10    # 10 slowest generations
//   trace_report --trace run.trace.json --validate  # schema check, exit 0/1
//   trace_report --trace run.trace.json --calibrate # kernel ns/round table
//
// The default report answers the paper's performance questions from one
// recorded run: where each rank's time went (compute = game play + apply,
// comm = the three communication phases), the run's critical path (sum
// over generations of the slowest rank's generation span — the lower
// bound no amount of overlap can beat), the slowest generations, and —
// for ft runs — the recorded failure-handling events. It also reports the
// message hop distribution (send to receive), split by whether the
// receiver was already waiting for the message or busy elsewhere, and the
// waiting hops by whether the receiver caught the message while spinning
// or had parked (trace_report_lib.hpp).
//
// --calibrate turns a traced run into a RoundCostTable entry for the
// performance simulator (src/machine/costmodel.hpp): game_play span time
// divided by games*rounds gives ns per game round for the traced memory
// depth. Only meaningful for fitness modes that actually play rounds
// (sampled/frozen); analytic runs mostly reuse deduplicated values.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace_report_lib.hpp"
#include "util/cli.hpp"

namespace {

using egt::trace_report::Event;
using egt::trace_report::Trace;

Trace load(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open trace: " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  return egt::trace_report::parse(ss.str());
}

std::string rank_label(const Trace& t, std::int64_t pid) {
  const auto it = t.process_names.find(pid);
  if (it != t.process_names.end()) return it->second;
  return "pid " + std::to_string(pid);
}

// -- validate -----------------------------------------------------------------

int validate(const Trace& t) {
  int errors = 0;
  const auto fail = [&errors](const std::string& what) {
    std::fprintf(stderr, "INVALID: %s\n", what.c_str());
    ++errors;
  };
  const auto schema = t.meta.find("schema");
  if (schema == t.meta.end() || schema->second != "egt.trace/v1") {
    fail("otherData.schema is not egt.trace/v1");
  }
  std::size_t spans = 0;
  std::set<std::uint64_t> starts, ends;
  for (const Event& e : t.events) {
    if (e.ph == "M") continue;
    if (e.name.empty()) fail("event without a name");
    if (e.ph == "X") {
      ++spans;
      if (e.dur_us < 0) fail("span with negative duration: " + e.name);
    } else if (e.ph == "s") {
      starts.insert(e.flow_id);
    } else if (e.ph == "f") {
      ends.insert(e.flow_id);
    } else if (e.ph != "i") {
      fail("unexpected event phase: " + e.ph);
    }
  }
  if (spans == 0) fail("no span (ph=X) events — nothing was recorded");
  // Every flow head must have a tail (a receive of a message nobody sent
  // is impossible). Tails without heads are fine: that is exactly what an
  // injected message drop looks like.
  std::size_t orphan_heads = 0;
  for (const std::uint64_t id : ends) {
    if (starts.find(id) == starts.end()) ++orphan_heads;
  }
  if (orphan_heads > 0) {
    fail(std::to_string(orphan_heads) + " flow end(s) without a start");
  }
  const std::size_t unreceived = [&] {
    std::size_t n = 0;
    for (const std::uint64_t id : starts) {
      if (ends.find(id) == ends.end()) ++n;
    }
    return n;
  }();
  if (errors == 0) {
    std::printf(
        "trace OK: %zu events, %zu spans, %zu flows (%zu unreceived), "
        "%llu dropped\n",
        t.events.size(), spans, starts.size(), unreceived,
        static_cast<unsigned long long>(t.dropped));
    return 0;
  }
  std::fprintf(stderr, "trace INVALID: %d error(s)\n", errors);
  return 1;
}

// -- default report -----------------------------------------------------------

bool is_compute_phase(const std::string& name) {
  return name == "phase.game_play" || name == "phase.apply_update";
}

bool is_comm_phase(const std::string& name) {
  return name == "phase.plan_bcast" || name == "phase.fitness_return" ||
         name == "phase.decision_bcast";
}

void report(const Trace& t, int top_k) {
  struct PerRank {
    double compute_us = 0.0;
    double comm_us = 0.0;
    double ft_us = 0.0;  // ft phases: checkpoint, recovery, election
    double comm_spans_us = 0.0;  // comm.send/recv span time
    double total_us = 0.0;       // generation-span time
    std::uint64_t generations = 0;
  };
  std::map<std::int64_t, PerRank> ranks;
  // generation -> per-pid duration (the critical path needs the max).
  std::map<std::uint64_t, std::map<std::int64_t, double>> gens;
  std::map<std::string, std::uint64_t> ft_events;

  for (const Event& e : t.events) {
    if (e.ph == "i" && e.cat == "ft") ++ft_events[e.name];
    if (e.ph != "X") continue;
    PerRank& r = ranks[e.pid];
    if (is_compute_phase(e.name)) r.compute_us += e.dur_us;
    if (is_comm_phase(e.name)) r.comm_us += e.dur_us;
    if (e.name.rfind("phase.ft_", 0) == 0) r.ft_us += e.dur_us;
    if (e.name == "comm.send" || e.name == "comm.bcast_send" ||
        e.name == "comm.recv") {
      r.comm_spans_us += e.dur_us;
    }
    if (e.name == "generation") {
      r.total_us += e.dur_us;
      ++r.generations;
      if (e.has_arg) {
        auto& slot = gens[e.arg][e.pid];
        slot = std::max(slot, e.dur_us);
      }
    }
  }

  if (const auto it = t.meta.find("config_summary"); it != t.meta.end()) {
    std::printf("config: %s\n", it->second.c_str());
  }
  std::printf("\nper-rank breakdown (span time, ms):\n");
  std::printf("  %-12s %10s %10s %10s %10s %8s\n", "rank", "compute",
              "comm", "ft", "total", "gens");
  for (const auto& [pid, r] : ranks) {
    if (r.total_us == 0.0 && r.compute_us == 0.0 && r.comm_us == 0.0) {
      // The pool pseudo-rank has no generation spans; report it below.
      continue;
    }
    std::printf("  %-12s %10.2f %10.2f %10.2f %10.2f %8llu\n",
                rank_label(t, pid).c_str(), r.compute_us / 1e3, r.comm_us / 1e3,
                r.ft_us / 1e3, r.total_us / 1e3,
                static_cast<unsigned long long>(r.generations));
  }
  for (const auto& [pid, r] : ranks) {
    if (r.total_us != 0.0 || r.compute_us != 0.0 || r.comm_us != 0.0) continue;
    std::printf("  %-12s (no engine spans)\n", rank_label(t, pid).c_str());
  }

  // Critical path: per generation the slowest rank bounds progress — the
  // protocol synchronizes every generation, so these maxima add up.
  double critical_us = 0.0;
  for (const auto& [gen, by_pid] : gens) {
    double worst = 0.0;
    for (const auto& [pid, dur] : by_pid) worst = std::max(worst, dur);
    critical_us += worst;
  }
  if (!gens.empty()) {
    std::printf("\ncritical path (sum of per-generation maxima): %.2f ms over "
                "%zu generations\n",
                critical_us / 1e3, gens.size());
  }

  if (top_k > 0 && !gens.empty()) {
    std::vector<std::pair<double, std::uint64_t>> slow;
    slow.reserve(gens.size());
    for (const auto& [gen, by_pid] : gens) {
      double worst = 0.0;
      for (const auto& [pid, dur] : by_pid) worst = std::max(worst, dur);
      slow.emplace_back(worst, gen);
    }
    std::sort(slow.rbegin(), slow.rend());
    const std::size_t n = std::min<std::size_t>(slow.size(),
                                                static_cast<std::size_t>(top_k));
    std::printf("\ntop %zu slowest generations:\n", n);
    for (std::size_t i = 0; i < n; ++i) {
      std::printf("  gen %-8llu %10.3f ms\n",
                  static_cast<unsigned long long>(slow[i].second),
                  slow[i].first / 1e3);
    }
  }

  const egt::trace_report::HopReport hops = egt::trace_report::message_hops(t);
  if (hops.all.count > 0) {
    std::printf("\nmessage hops, send to receive (us):\n");
    std::printf("  %-24s %8s %10s %10s %10s\n", "receiver", "count", "p50",
                "p90", "max");
    const auto row = [](const char* label,
                        const egt::trace_report::HopStats& h) {
      std::printf("  %-24s %8zu %10.1f %10.1f %10.1f\n", label, h.count,
                  h.p50_us, h.p90_us, h.max_us);
    };
    row("all", hops.all);
    row("waiting (deliver+wake)", hops.waiting);
    row("  spun", hops.spun);
    row("  parked", hops.parked);
    row("busy (queued)", hops.busy);
  }

  if (!ft_events.empty()) {
    std::printf("\nft events:\n");
    for (const auto& [name, count] : ft_events) {
      std::printf("  %-24s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }
  if (t.dropped > 0) {
    std::printf("\nwarning: %llu event(s) dropped by ring wrap — raise "
                "--trace-capacity for complete data\n",
                static_cast<unsigned long long>(t.dropped));
  }
}

// -- calibrate ----------------------------------------------------------------

int calibrate(const Trace& t) {
  const auto meta_u64 = [&](const char* key) -> std::uint64_t {
    const auto it = t.meta.find(key);
    return it == t.meta.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
  };
  const std::uint64_t memory = meta_u64("memory");
  const std::uint64_t rounds = meta_u64("rounds");
  const auto mode_it = t.meta.find("fitness_mode");
  const std::string mode = mode_it == t.meta.end() ? "?" : mode_it->second;
  if (rounds == 0) {
    std::fprintf(stderr,
                 "calibrate: trace has no rounds metadata (record with "
                 "run_simulation --trace-out)\n");
    return 1;
  }
  std::uint64_t games = 0;
  double game_play_us = 0.0;
  for (const Event& e : t.events) {
    if (e.ph != "X" || e.name != "phase.game_play") continue;
    game_play_us += e.dur_us;
    if (e.has_arg && e.arg_name == "games") games += e.arg;
  }
  if (games == 0) {
    std::fprintf(stderr,
                 "calibrate: no games recorded in phase.game_play spans — "
                 "an analytic run that never replayed a game cannot "
                 "calibrate the kernel (use --fitness sampled)\n");
    return 1;
  }
  const double total_rounds =
      static_cast<double>(games) * static_cast<double>(rounds);
  const double ns_per_round = game_play_us * 1e3 / total_rounds;
  std::printf("kernel calibration from trace (mode=%s):\n", mode.c_str());
  std::printf("  games:          %llu\n",
              static_cast<unsigned long long>(games));
  std::printf("  rounds/game:    %llu\n",
              static_cast<unsigned long long>(rounds));
  std::printf("  game_play time: %.3f ms\n", game_play_us / 1e3);
  std::printf("  ns per round:   %.2f\n", ns_per_round);
  std::printf("\nRoundCostTable entry (src/machine/costmodel.hpp):\n");
  std::printf("  t.indexed_ns[%llu] = %.2f;\n",
              static_cast<unsigned long long>(memory), ns_per_round);
  if (mode != "sampled" && mode != "frozen") {
    std::printf("\nnote: mode %s caches game results — the figure above "
                "includes cache hits and understates the raw kernel cost\n",
                mode.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  egt::util::Cli cli("trace_report",
                     "analyze an egt.trace/v1 flight-recorder trace");
  auto trace_path = cli.opt<std::string>("trace", "", "trace JSON to analyze");
  auto top = cli.opt<int>("top", 5, "slowest generations to list (0 = none)");
  auto do_validate =
      cli.flag("validate", "schema-check the trace; exit 0 when valid");
  auto do_calibrate = cli.flag(
      "calibrate",
      "derive a machine-model RoundCostTable entry from the traced run");
  cli.parse(argc, argv);
  if (trace_path->empty()) {
    std::fprintf(stderr, "error: --trace PATH is required\n%s",
                 cli.usage().c_str());
    return 2;
  }
  try {
    const Trace t = load(*trace_path);
    if (*do_validate) return validate(t);
    if (*do_calibrate) return calibrate(t);
    report(t, *top);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
