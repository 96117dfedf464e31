// Building blocks of the layer-ledger benchmark that need no engine run:
// the span-tree ledger, quantiles, the open-loop generator and the pair
// route census. Kept header-only so ledger_test.cpp exercises exactly the
// code ledger.cpp runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/fitness.hpp"
#include "pop/population.hpp"

namespace perfbench {

// -- quantiles ----------------------------------------------------------------

/// q-quantile by linear interpolation between order statistics (the
/// "inclusive" definition). 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// -- span-tree ledger ---------------------------------------------------------

/// One closed span on a timeline, in nanoseconds.
struct Span {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Self time per span name: each span's duration minus the part of it its
/// child spans cover. Spans are nested by time; a child sticking out of
/// its parent is clipped to it, so the self times of every span under a
/// root always add up to the root's duration.
inline std::map<std::string, double> self_times(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start != b.start ? a.start < b.start : a.end > b.end;
  });
  struct Open {
    const Span* span;
    std::int64_t end;  // clipped
    std::int64_t child_ns = 0;
  };
  std::map<std::string, double> self;
  std::vector<Open> stack;
  const auto close = [&]() {
    const Open& o = stack.back();
    self[o.span->name] +=
        static_cast<double>(o.end - o.span->start - o.child_ns) * 1e-9;
    stack.pop_back();
  };
  for (const Span& s : spans) {
    while (!stack.empty() && stack.back().end <= s.start) close();
    std::int64_t end = s.end;
    if (!stack.empty()) {
      end = std::min(end, stack.back().end);
      stack.back().child_ns += end - s.start;
    }
    stack.push_back({&s, end});
  }
  while (!stack.empty()) close();
  return self;
}

/// The wall time of a set of root spans split into named layers plus an
/// explicit residual (the roots' own self time: wall no layer covers).
struct Ledger {
  std::map<std::string, double> layers;  // layer -> self seconds
  double residual_s = 0.0;
  double wall_s = 0.0;

  double accounted_s() const {
    double s = 0.0;
    for (const auto& [name, v] : layers) s += v;
    return s;
  }
  double unaccounted_frac() const {
    return wall_s > 0.0 ? residual_s / wall_s : 0.0;
  }
  /// Fold in the ledger of another timeline (e.g. a second worker).
  Ledger& operator+=(const Ledger& o) {
    for (const auto& [name, v] : o.layers) layers[name] += v;
    residual_s += o.residual_s;
    wall_s += o.wall_s;
    return *this;
  }
};

/// Build a ledger from one timeline (concurrent timelines each get their
/// own ledger, added up with +=). Spans named in `residual_names` (the
/// roots, and wrappers whose uncovered time has no better name) feed the
/// residual; every other span feeds layer `layer_of(name)`. Spans not fully
/// inside a root are ignored, so Σ layers + residual = Σ root durations.
inline Ledger build_ledger(
    const std::vector<Span>& roots, const std::vector<Span>& spans,
    const std::function<bool(const std::string&)>& is_residual,
    const std::function<std::string(const std::string&)>& layer_of) {
  std::vector<Span> all = roots;
  Ledger ledger;
  for (const Span& r : roots) {
    ledger.wall_s += static_cast<double>(r.end - r.start) * 1e-9;
  }
  for (const Span& s : spans) {
    const bool inside = std::any_of(roots.begin(), roots.end(), [&](const Span& r) {
      return r.start <= s.start && s.end <= r.end;
    });
    if (inside) all.push_back(s);
  }
  for (const auto& [name, secs] : self_times(std::move(all))) {
    if (is_residual(name)) {
      ledger.residual_s += secs;
    } else {
      ledger.layers[layer_of(name)] += secs;
    }
  }
  return ledger;
}

// -- open-loop load generator -------------------------------------------------

/// Arrival offsets (seconds from the start) of `n` requests of a Poisson
/// process with `rate` per second, conditioned on its n-th arrival at
/// n / rate: sorted uniform draws before it. Same seed, same schedule.
inline std::vector<double> poisson_schedule(std::size_t n, double rate,
                                            std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, static_cast<double>(n) / rate);
  // The last request is due exactly at n / rate (the conditioning), so
  // the schedule has the same length for every seed.
  std::vector<double> due(n, static_cast<double>(n) / rate);
  for (std::size_t i = 0; i + 1 < n; ++i) due[i] = u(rng);
  std::sort(due.begin(), due.end());
  return due;
}

/// What the generator measured for one request.
struct Sent {
  double due_s = 0.0;   // scheduled send time, from the start
  double sent_s = 0.0;  // when send() was actually called
  double call_s = 0.0;  // duration of send()
  double lag_s() const { return sent_s - due_s; }
};

/// Drive `send(i)` at each due time regardless of how earlier calls went
/// (open loop). A slow send() or a stalled generator makes later sends
/// late; that lateness is reported as lag, and latency is timed from the
/// due time, so a stall never reads as a faster system.
inline std::vector<Sent> run_open_loop(
    const std::vector<double>& due, std::chrono::steady_clock::time_point t0,
    const std::function<void(std::size_t)>& send) {
  using Clock = std::chrono::steady_clock;
  const auto since = [&t0](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  std::vector<Sent> out(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(due[i])));
    const auto before = Clock::now();
    send(i);
    const auto after = Clock::now();
    out[i] = Sent{due[i], since(before), since(after) - since(before)};
  }
  return out;
}

// -- route census -------------------------------------------------------------

/// Ordered pairs (i != j) of a population per PairEvaluator::Route, in the
/// enum's order: nway_spec, pure_exact, mem1_markov, sampled_stream.
struct RouteCounts {
  std::uint64_t nway_spec = 0;
  std::uint64_t pure_exact = 0;
  std::uint64_t mem1_markov = 0;
  std::uint64_t sampled_stream = 0;

  RouteCounts& operator+=(const RouteCounts& o) {
    nway_spec += o.nway_spec;
    pure_exact += o.pure_exact;
    mem1_markov += o.mem1_markov;
    sampled_stream += o.sampled_stream;
    return *this;
  }
};

inline RouteCounts count_routes(const egt::core::PairEvaluator& eval,
                                const egt::pop::Population& pop) {
  using Route = egt::core::PairEvaluator::Route;
  RouteCounts c;
  for (egt::pop::SSetId i = 0; i < pop.size(); ++i) {
    for (egt::pop::SSetId j = 0; j < pop.size(); ++j) {
      if (i == j) continue;
      switch (eval.route(pop.strategy(i), pop.strategy(j))) {
        case Route::NWaySpec: ++c.nway_spec; break;
        case Route::PureExact: ++c.pure_exact; break;
        case Route::Mem1Markov: ++c.mem1_markov; break;
        case Route::SampledStream: ++c.sampled_stream; break;
      }
    }
  }
  return c;
}

}  // namespace perfbench
