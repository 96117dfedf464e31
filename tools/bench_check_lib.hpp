// Comparison logic behind tools/bench_check, extracted so the perf-gate
// semantics are unit-testable (tests/tools/bench_check_test.cpp) — the gate
// guards CI, so the gate itself needs tests.
//
// Time-gate policy: wall time is environment-dependent, so a row only fails
// when the regression is significant BOTH relatively and absolutely:
//
//   fail  ⇔  base >= min_seconds
//         && cur > base * (1 + max_regress)      (relative budget)
//         && cur > base + noise_floor            (absolute noise floor)
//
// The absolute floor is what lets sub-millisecond rows (the analytic kernel
// rows sit near 0.2–0.9 ms) be gated at all: scheduler jitter alone is worth
// a few ms, so a pure ratio test on such rows fires on timer noise. With the
// floor, `--min-seconds 0` gates every row safely. Counters and hashes are
// deterministic and always compared exactly. Twin ratio gates compare two
// rows of one document, so they hold on any host.
#pragma once

#include <cstdint>
#include <iostream>
#include <span>
#include <string>

#include "util/json.hpp"

namespace egt::bench {

struct TimeGate {
  double max_regress = 0.25;   ///< tolerated relative slowdown
  double min_seconds = 0.05;   ///< baseline rows faster than this skip the gate
  double noise_floor = 0.005;  ///< absolute seconds always tolerated on top
};

/// True when `cur_s` regresses past `base_s` under the gate policy above.
inline bool time_regressed(double base_s, double cur_s, const TimeGate& g) {
  if (base_s < g.min_seconds) return false;
  return cur_s > base_s * (1.0 + g.max_regress) &&
         cur_s > base_s + g.noise_floor;
}

inline const util::JsonValue* find_row(const util::JsonValue& doc,
                                       const std::string& name) {
  for (const auto& row : doc.at("rows").items()) {
    if (row.at("name").as_string() == name) return &row;
  }
  return nullptr;
}

/// --trace-overhead: within one document, every "<name> + trace" row is the
/// same run as "<name>" with the flight recorder on. The traced row must
/// keep the exact counters/hash (tracing must not perturb the trajectory)
/// and stay within `max_overhead` relative wall time on top of the noise
/// floor. Returns the failure count.
inline int check_trace_overhead(const util::JsonValue& doc,
                                double max_overhead, const TimeGate& gate,
                                std::ostream& out = std::cout,
                                std::ostream& err = std::cerr) {
  int failures = 0, compared = 0;
  for (const auto& row : doc.at("rows").items()) {
    const std::string name = row.at("name").as_string();
    const std::string suffix = " + trace";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string base_name = name.substr(0, name.size() - suffix.size());
    const auto* base = find_row(doc, base_name);
    if (base == nullptr) {
      err << "FAIL [" << name << "]: no untraced row '" << base_name
          << "' to compare against\n";
      ++failures;
      continue;
    }
    ++compared;
    for (const char* counter : {"pairs_evaluated", "games_played"}) {
      if (row.at(counter).as_u64() != base->at(counter).as_u64()) {
        err << "FAIL [" << name << "]: " << counter
            << " diverged from the untraced run\n";
        ++failures;
      }
    }
    if (row.at("table_hash").as_string() !=
        base->at("table_hash").as_string()) {
      err << "FAIL [" << name << "]: tracing changed the trajectory\n";
      ++failures;
    }
    const double base_t = base->at("wall_s").as_number();
    const double cur_t = row.at("wall_s").as_number();
    TimeGate overhead_gate = gate;
    overhead_gate.max_regress = max_overhead;
    if (time_regressed(base_t, cur_t, overhead_gate)) {
      err << "FAIL [" << name << "]: traced wall time " << cur_t << "s > "
          << (1.0 + max_overhead) << "x untraced " << base_t << "s\n";
      ++failures;
    } else {
      out << "ok   [" << name << "]: " << cur_t << "s traced vs " << base_t
          << "s untraced ("
          << (base_t > 0 ? (cur_t / base_t - 1.0) * 100.0 : 0.0)
          << "% overhead)\n";
    }
  }
  if (compared == 0) {
    err << "FAIL: no '<name> + trace' rows found\n";
    ++failures;
  }
  return failures;
}

/// A same-run twin ratio gate: within one document, row `fast` must take
/// at most `max_ratio` x the wall of its twin `slow`, the same run under
/// the scalar kernel. Both rows ran on the same host, so the gate needs no
/// baseline from another machine. The bound is calibrated at `min_lanes`
/// games in flight (the document's config.stream_lanes); on a narrower
/// host the ratio is reported, not gated.
struct TwinRatio {
  const char* fast;
  const char* slow;
  double max_ratio;
  std::uint64_t min_lanes;
};

/// The twin gates bench_check applies to every --current document.
inline constexpr TwinRatio kTwinRatios[] = {
    {"sampled m6 noisy", "sampled m6 noisy scalar", 0.8, 16},
};

/// Apply `gates` to `doc`: both twins must exist and agree on counters
/// and table hash (they replay one trajectory), and the wall ratio must
/// stay within its bound where the gate binds. Returns the failure count.
inline int check_twin_ratios(const util::JsonValue& doc,
                             std::span<const TwinRatio> gates = kTwinRatios,
                             std::ostream& out = std::cout,
                             std::ostream& err = std::cerr) {
  const auto& config = doc.at("config");
  if (!config.has("stream_lanes")) {
    err << "FAIL: document records no config.stream_lanes for the twin "
           "ratio gates\n";
    return 1;
  }
  const std::uint64_t lanes = config.at("stream_lanes").as_u64();
  int failures = 0;
  for (const TwinRatio& t : gates) {
    const auto* fast = find_row(doc, t.fast);
    const auto* slow = find_row(doc, t.slow);
    const std::string pair = std::string(t.fast) + " / " + t.slow;
    if (fast == nullptr || slow == nullptr) {
      err << "FAIL [" << pair << "]: twin row missing\n";
      ++failures;
      continue;
    }
    bool same = fast->at("table_hash").as_string() ==
                slow->at("table_hash").as_string();
    for (const char* counter : {"pairs_evaluated", "games_played"}) {
      same = same && fast->at(counter).as_u64() == slow->at(counter).as_u64();
    }
    if (!same) {
      err << "FAIL [" << pair << "]: twins diverged (counters or hash)\n";
      ++failures;
      continue;
    }
    const double slow_t = slow->at("wall_s").as_number();
    const double ratio =
        slow_t > 0 ? fast->at("wall_s").as_number() / slow_t : 0.0;
    if (lanes < t.min_lanes) {
      out << "--   [" << pair << "]: ratio " << ratio << " not gated at "
          << lanes << " lane(s) (bound " << t.max_ratio << " is for "
          << t.min_lanes << ")\n";
    } else if (ratio > t.max_ratio) {
      err << "FAIL [" << pair << "]: wall ratio " << ratio << " > "
          << t.max_ratio << "\n";
      ++failures;
    } else {
      out << "ok   [" << pair << "]: wall ratio " << ratio
          << " <= " << t.max_ratio << "\n";
    }
  }
  return failures;
}

/// Compare every baseline row against the current document: counters and
/// table hash exactly, wall time under the gate. Returns the failure count.
inline int check_baseline(const util::JsonValue& baseline,
                          const util::JsonValue& current, const TimeGate& gate,
                          std::ostream& out = std::cout,
                          std::ostream& err = std::cerr) {
  int failures = 0;
  for (const auto& base_row : baseline.at("rows").items()) {
    const std::string name = base_row.at("name").as_string();
    const auto* cur_row = find_row(current, name);
    if (cur_row == nullptr) {
      err << "FAIL [" << name << "]: missing from current run\n";
      ++failures;
      continue;
    }
    for (const char* counter : {"pairs_evaluated", "games_played"}) {
      const auto base_v = base_row.at(counter).as_u64();
      const auto cur_v = cur_row->at(counter).as_u64();
      if (base_v != cur_v) {
        err << "FAIL [" << name << "]: " << counter << " " << cur_v
            << " != baseline " << base_v << "\n";
        ++failures;
      }
    }
    if (base_row.at("table_hash").as_string() !=
        cur_row->at("table_hash").as_string()) {
      err << "FAIL [" << name << "]: final table hash diverged\n";
      ++failures;
    }
    const double base_t = base_row.at("wall_s").as_number();
    const double cur_t = cur_row->at("wall_s").as_number();
    if (time_regressed(base_t, cur_t, gate)) {
      err << "FAIL [" << name << "]: wall time " << cur_t << "s > "
          << (1.0 + gate.max_regress) << "x baseline " << base_t << "s (+"
          << gate.noise_floor << "s floor)\n";
      ++failures;
    } else {
      out << "ok   [" << name << "]: " << cur_t << "s vs baseline " << base_t
          << "s\n";
    }
  }
  return failures;
}

}  // namespace egt::bench
