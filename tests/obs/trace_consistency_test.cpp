// Cross-validation of the two time sources: the flight recorder's phase
// spans (obs/tracer.hpp) and the metrics registry's phase histograms
// (obs/metrics.hpp) wrap the same scopes in the engine, so a traced run's
// per-phase span totals must agree with the manifest timers. A divergence
// means one of the instrumentation sites drifted from the other.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "core/engine.hpp"
#include "ft/ft_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/json.hpp"

namespace egt::obs {
namespace {

constexpr const char* kFtPhases[] = {"phase.ft_recovery", "phase.ft_election"};

/// Runs `body` under the flight recorder and returns its Chrome trace.
template <class Body>
util::JsonValue traced(Body&& body) {
  Tracer& tracer = Tracer::instance();
  tracer.start();
  body();
  tracer.stop();
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tracer.clear();
  util::JsonValue doc = util::JsonValue::parse(os.str());
  EXPECT_EQ(doc.at("otherData").at("dropped_events").as_u64(), 0u)
      << "raise the test capacity: a wrapped ring undercounts spans";
  return doc;
}

/// Total seconds of the complete ("X") spans of each name.
std::map<std::string, double> span_seconds(const util::JsonValue& doc) {
  std::map<std::string, double> out;
  for (const auto& e : doc.at("traceEvents").items()) {
    if (e.at("ph").as_string() != "X") continue;
    out[e.at("name").as_string()] += e.at("dur").as_number() * 1e-6;  // us
  }
  return out;
}

void expect_spans_match_timers(const std::map<std::string, double>& spans,
                               const MetricsSnapshot& snap,
                               const std::string& name) {
  const double timer = snap.histogram_seconds(name);
  const auto it = spans.find(name);
  const double span = it == spans.end() ? 0.0 : it->second;
  // Same scopes, two clocks: allow scheduling noise and the constant
  // per-scope cost difference, but catch a missing or double-counted
  // instrumentation site (those diverge by whole phase totals).
  const double tol = 0.25 * std::max(timer, span) + 0.005;
  EXPECT_NEAR(span, timer, tol) << name;
}

TEST(TraceConsistency, PhaseSpansMatchManifestTimers) {
  core::SimConfig cfg;
  cfg.ssets = 24;
  cfg.memory = 1;
  cfg.generations = 60;
  cfg.seed = 7;
  cfg.fitness_mode = core::FitnessMode::Sampled;
  cfg.game.rounds = 50;

  MetricsRegistry registry;
  const util::JsonValue doc = traced([&] {
    core::Engine engine(cfg, &registry);
    engine.run_all();
  });
  std::uint64_t generation_spans = 0;
  for (const auto& e : doc.at("traceEvents").items()) {
    if (e.at("ph").as_string() == "X" &&
        e.at("name").as_string() == kGenerationSpan) {
      ++generation_spans;
    }
  }
  // initialize() records one extra game_play span before generation 1.
  EXPECT_EQ(generation_spans, cfg.generations);

  const auto spans = span_seconds(doc);
  const MetricsSnapshot snap = registry.snapshot();
  for (const char* name : phase::kAll) {
    expect_spans_match_timers(spans, snap, name);
  }

  // The ft engine's two phases ride the same one-clock scopes: a run that
  // recovers a killed worker and fails over rank 0.
  core::SimConfig ft_cfg = cfg;
  ft_cfg.fitness_mode = core::FitnessMode::SampledFrozen;
  ft_cfg.pc_rate = 0.5;
  ft_cfg.generations = 40;
  ft::FtRunOptions opt;
  opt.plan.kill(2, 12).kill(0, 25);
  opt.detect_timeout_ms = 150.0;
  opt.ping_timeout_ms = 60.0;
  opt.max_pings = 2;
  opt.master_silence_ms = 450.0;
  opt.election_window_ms = 80.0;
  std::optional<ft::FtResult> run;
  const util::JsonValue ft_doc =
      traced([&] { run.emplace(ft::run_parallel_ft(ft_cfg, 4, opt)); });
  const ft::FtResult& ft = *run;
  ASSERT_EQ(ft.failovers, 1);
  ASSERT_EQ(ft.ranks_lost, 2);
  const auto ft_spans = span_seconds(ft_doc);
  for (const char* name : phase::kAll) {
    expect_spans_match_timers(ft_spans, ft.metrics, name);
  }
  for (const char* name : kFtPhases) {
    const HistogramSample* h = ft.metrics.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count, 0u) << name;
    expect_spans_match_timers(ft_spans, ft.metrics, name);
  }

  // The election phase ends when the vote is won: the generations the
  // new master then runs are not election time.
  struct Span {
    std::uint64_t pid;
    std::uint64_t tid;
    double begin, end;
  };
  std::vector<Span> elections, generations;
  for (const auto& e : ft_doc.at("traceEvents").items()) {
    if (e.at("ph").as_string() != "X") continue;
    const std::string name = e.at("name").as_string();
    const double ts = e.at("ts").as_number();
    const Span s{e.at("pid").as_u64(), e.at("tid").as_u64(), ts,
                 ts + e.at("dur").as_number()};
    if (name == "phase.ft_election") elections.push_back(s);
    if (name == kGenerationSpan) generations.push_back(s);
  }
  ASSERT_FALSE(elections.empty());
  std::uint64_t nested = 0;
  for (const Span& el : elections) {
    for (const Span& g : generations) {
      if (g.pid == el.pid && g.tid == el.tid && g.begin >= el.begin &&
          g.end <= el.end) {
        ++nested;
      }
    }
  }
  EXPECT_EQ(nested, 0u) << "generation spans inside a phase.ft_election span";
}

}  // namespace
}  // namespace egt::obs
