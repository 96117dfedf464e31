// ledger: one workload of the layer-ledger benchmark, driven through the
// library's public API only (core::run_parallel, ft::run_parallel_ft,
// serve::Scheduler, core::BlockFitness, core::PairEvaluator and the job
// checkpoint codecs).
//
//   ledger --workload sampled_m6 --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (from a separate traced run whose span tree is split into layers plus an
// explicit residual). Every timed run's output is checked against a
// single-process reference; a mismatch, an exception or a lost rank is
// counted as failed, never as a fast run. The last stdout line is the
// result object {"correct", "attempted", "failed", "metrics"}; the line
// before it is the run's provenance.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/fitness.hpp"
#include "core/parallel_engine.hpp"
#include "core/trace.hpp"
#include "ft/ft_engine.hpp"
#include "game/simd.hpp"
#include "ledger_lib.hpp"
#include "obs/tracer.hpp"
#include "serve/job_checkpoint.hpp"
#include "serve/jobspec.hpp"
#include "serve/journal.hpp"
#include "serve/scheduler.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace egt;
using perfbench::median;
using perfbench::quantile;
using perfbench::Span;
using Clock = std::chrono::steady_clock;

/// Chrome pid of the benchmark's own thread (ranks are 0..n-1, the shared
/// pool is obs::kPoolPid).
constexpr int kBenchPid = 1000;
constexpr int kRanks = 4;

// -- result -------------------------------------------------------------------

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// One checked operation: counted as attempted, and as failed with a
  /// reason on stderr when `ok` is false.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      std::fprintf(stderr, "ledger: FAILED %s\n", what.c_str());
    }
  }
  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    const char* sep = "";
    for (const auto& [name, vu] : metrics) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                  name.c_str(), vu.first, vu.second.c_str());
      sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

/// Per-layer metrics every traced run reports (0 where a layer does not
/// take part in the workload), with units.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"game.route.sampled_stream.pairs", "count"},
    {"game.route.mem1_markov.pairs", "count"},
    {"game.route.pure_exact.pairs", "count"},
    {"game.route.nway_spec.pairs", "count"},
    {"game.sampled_stream.ns_per_pair", "ns"},
    {"game.mem1_markov.ns_per_pair", "ns"},
    {"game.pure_exact.ns_per_pair", "ns"},
    {"fitness.initialize_s", "s"},
    {"fitness.game_play_s", "s"},
    {"fitness.apply_update_s", "s"},
    {"fitness.pairs_evaluated", "count"},
    {"fitness.games_played", "count"},
    {"fitness.dedup_hit_ratio", "ratio"},
    {"fitness.cache_inserts", "count"},
    {"fitness.cache_prunes", "count"},
    {"nature.plan_s", "s"},
    {"nature.decision_s", "s"},
    {"engine.pc_events", "count"},
    {"engine.mutations", "count"},
    {"engine.adoptions", "count"},
    {"comm.bcast_bytes_per_gen", "B"},
    {"comm.p2p_bytes_per_gen", "B"},
    {"comm.messages_per_gen", "count"},
    {"comm.recv_wait_s", "s"},
    {"comm.rank_busy_imbalance", "ratio"},
    {"par.scaling_eff", "ratio"},
    {"parallel.plan_bcast_s", "s"},
    {"parallel.fitness_return_s", "s"},
    {"parallel.decision_bcast_s", "s"},
    {"ft.log.bytes", "B"},
    {"ft.log.appends", "count"},
    {"ft.checkpoint.writes", "count"},
    {"ft.checkpoint.bytes", "B"},
    {"ft.checkpoint_s", "s"},
    {"ft.resends", "count"},
    {"ft.false_alarms", "count"},
    {"serve.jobs_per_s", "1/s"},
    {"serve.job_latency_p90_s", "s"},
    {"proc.peak_rss_mb", "MB"},
    {"serve.submit_latency_p50_ms", "ms"},
    {"serve.submit_latency_p90_ms", "ms"},
    {"serve.queue_wait_p50_s", "s"},
    {"serve.queue_wait_p90_s", "s"},
    {"serve.attempt_run_s", "s"},
    {"serve.preemptions", "count"},
    {"serve.jobs_resumed", "count"},
    {"serve.generator_lag_p90_ms", "ms"},
    {"ckpt.job_bytes_mean", "B"},
    {"ckpt.encode_s", "s"},
    {"ckpt.resume_s", "s"},
    {"journal.records", "count"},
    {"journal.bytes", "B"},
    {"obs.trace_overhead_frac", "ratio"},
    {"obs.trace_dropped_events", "count"},
    {"ledger.wall_s", "s"},
    {"ledger.residual_s", "s"},
    {"layers.unaccounted_frac", "ratio"},
};

/// Ledger layers, named by module, each reported as ledger.<layer>_s.
const std::vector<const char*> kLedgerLayers = {
    "fitness.game_play", "fitness.apply_update", "nature.plan",
    "nature.decision",   "par.fitness_return",   "comm.send",
    "comm.recv_wait",    "engine.loop",          "ft.checkpoint",
    "ft.recovery",       "pool",                 "serve.engine_setup",
    "ckpt.resume",       "ckpt.commit",          "journal.complete",
    "serve.worker_idle", "other",
};

/// Span name -> ledger layer. Names the benchmark records around its own
/// calls ("bench.*") and job attempts are wrappers: their uncovered time
/// is the residual.
bool is_residual_span(const std::string& name) {
  return name.rfind("bench.", 0) == 0 || name.rfind("serve.attempt", 0) == 0;
}

std::string layer_of(const std::string& name) {
  static const std::map<std::string, std::string> kMap = {
      {"phase.game_play", "fitness.game_play"},
      {"phase.apply_update", "fitness.apply_update"},
      {"phase.plan_bcast", "nature.plan"},
      {"phase.decision_bcast", "nature.decision"},
      {"phase.fitness_return", "par.fitness_return"},
      {"comm.send", "comm.send"},
      {"comm.bcast_send", "comm.send"},
      {"comm.recv", "comm.recv_wait"},
      {"generation", "engine.loop"},
      {"phase.ft_checkpoint", "ft.checkpoint"},
      {"phase.ft_recovery", "ft.recovery"},
      {"phase.ft_election", "ft.recovery"},
      {"pool.chunk", "pool"},
      {"serve.setup", "serve.engine_setup"},
      {"serve.resume", "ckpt.resume"},
      {"serve.commit", "ckpt.commit"},
      {"serve.complete", "journal.complete"},
      {"serve.window", "serve.worker_idle"},
  };
  const auto it = kMap.find(name);
  return it == kMap.end() ? "other" : it->second;
}

void put_ledger(Result& r, const perfbench::Ledger& l) {
  for (const char* layer : kLedgerLayers) {
    const auto it = l.layers.find(layer);
    r.metric(std::string("ledger.") + layer + "_s",
             it == l.layers.end() ? 0.0 : it->second, "s");
  }
  r.metric("ledger.wall_s", l.wall_s, "s");
  r.metric("ledger.residual_s", l.residual_s, "s");
  r.metric("layers.unaccounted_frac", l.unaccounted_frac(), "ratio");
  std::fprintf(stderr,
               "ledger: wall %.4f s = layers %.4f s + residual %.4f s "
               "(unaccounted %.2f%%)\n",
               l.wall_s, l.accounted_s(), l.residual_s,
               100.0 * l.unaccounted_frac());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  return util::mix64(seed * 0x9e3779b97f4a7c15ULL + salt);
}

// -- trace digest -------------------------------------------------------------

/// The recorded session, parsed back from its Chrome JSON: spans per
/// timeline (pid, tid), plus the session's dropped-event count.
struct TraceDigest {
  struct Lane {
    std::int64_t pid = 0;
    std::vector<Span> spans;
    std::vector<std::uint64_t> args;  // parallel to spans
  };
  std::map<std::pair<std::int64_t, std::int64_t>, Lane> lanes;
  std::uint64_t dropped = 0;

  /// Σ span durations of `name` over every lane.
  double total_s(const std::string& name) const {
    double s = 0.0;
    for (const auto& [key, lane] : lanes) {
      for (const Span& sp : lane.spans) {
        if (sp.name == name) s += static_cast<double>(sp.end - sp.start) * 1e-9;
      }
    }
    return s;
  }
};

TraceDigest stop_and_digest() {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.stop();
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  TraceDigest d;
  d.dropped = tracer.dropped_events();
  const util::JsonValue doc = util::JsonValue::parse(os.str());
  for (const util::JsonValue& e : doc.at("traceEvents").items()) {
    if (e.at("ph").as_string() != "X") continue;
    const auto pid = static_cast<std::int64_t>(e.at("pid").as_u64());
    const auto tid = static_cast<std::int64_t>(e.at("tid").as_u64());
    auto& lane = d.lanes[{pid, tid}];
    lane.pid = pid;
    const auto ts = static_cast<std::int64_t>(e.at("ts").as_number() * 1e3);
    const auto dur = static_cast<std::int64_t>(e.at("dur").as_number() * 1e3);
    lane.spans.push_back({e.at("name").as_string(), ts, ts + dur});
    std::uint64_t arg = 0;
    if (const util::JsonValue* args = e.find("args")) {
      if (!args->members().empty()) arg = args->members().front().second.as_u64();
    }
    lane.args.push_back(arg);
  }
  tracer.clear();
  return d;
}

/// Ledger of one engine call: the benchmark's "bench.*" span around the
/// call is the root; the rank-0 (Nature / master) timeline supplies the
/// layers, since every generation waits on it.
perfbench::Ledger engine_ledger(const TraceDigest& d) {
  std::vector<Span> roots, spans;
  for (const auto& [key, lane] : d.lanes) {
    if (lane.pid == kBenchPid) {
      for (const Span& s : lane.spans) {
        if (s.name.rfind("bench.", 0) == 0) roots.push_back(s);
      }
    } else if (lane.pid == 0) {
      spans.insert(spans.end(), lane.spans.begin(), lane.spans.end());
    }
  }
  return perfbench::build_ledger(roots, spans, is_residual_span, layer_of);
}

/// max ÷ mean over ranks 0..n-1 of game-play self time.
double rank_busy_imbalance(const TraceDigest& d, int nranks) {
  std::vector<double> busy(static_cast<std::size_t>(nranks), 0.0);
  for (const auto& [key, lane] : d.lanes) {
    if (lane.pid < 0 || lane.pid >= nranks) continue;
    const auto self = perfbench::self_times(lane.spans);
    const auto it = self.find(obs::phase::kGamePlay);
    if (it != self.end()) busy[static_cast<std::size_t>(lane.pid)] += it->second;
  }
  double sum = 0.0, mx = 0.0;
  for (double b : busy) {
    sum += b;
    mx = std::max(mx, b);
  }
  return sum > 0.0 ? mx / (sum / nranks) : 0.0;
}

// -- per-pair kernel timing ---------------------------------------------------

/// ns per pair of each route, timed on a seeded sample of the workload's
/// own initial pairs; routes the population never takes stay 0.
void time_routes(const core::SimConfig& cfg, std::uint64_t seed,
                 std::map<std::string, double>& ns) {
  using Route = core::PairEvaluator::Route;
  const core::PairEvaluator eval(cfg);
  const pop::Population pop = core::make_initial_population(cfg);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<pop::SSetId> pick(0, pop.size() - 1);
  std::map<Route, std::vector<std::pair<pop::SSetId, pop::SSetId>>> sample;
  for (int k = 0; k < 4096; ++k) {
    const pop::SSetId i = pick(rng), j = pick(rng);
    if (i == j) continue;
    sample[eval.route(pop.strategy(i), pop.strategy(j))].emplace_back(i, j);
  }
  volatile double sink = 0.0;
  const auto time_per_pair = [&](std::size_t pairs, const std::function<void()>& body) {
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
      util::Timer t;
      body();
      reps.push_back(t.nanos() / static_cast<double>(pairs));
    }
    return median(reps);
  };
  if (const auto& s = sample[Route::SampledStream]; !s.empty()) {
    const std::size_t n = std::min<std::size_t>(s.size(), 256);
    ns["game.sampled_stream.ns_per_pair"] = time_per_pair(n, [&] {
      for (std::size_t k = 0; k < n; ++k) sink = sink + eval.payoff(pop, s[k].first, s[k].second, 1);
    });
  }
  if (const auto& s = sample[Route::Mem1Markov]; !s.empty()) {
    game::batch::Mem1Batch batch;
    for (const auto& [i, j] : s) batch.push_pair(pop.strategy(i), pop.strategy(j), cfg.game.noise);
    std::vector<double> out(batch.size());
    ns["game.mem1_markov.ns_per_pair"] = time_per_pair(batch.size() * 20, [&] {
      for (int r = 0; r < 20; ++r) eval.mem1_batch_payoffs(batch, out);
      sink = sink + out[0];
    });
  }
  if (const auto& s = sample[Route::PureExact]; !s.empty()) {
    ns["game.pure_exact.ns_per_pair"] = time_per_pair(s.size(), [&] {
      for (const auto& [i, j] : s) sink = sink + eval.pair_payoff(pop.strategy(i), pop.strategy(j));
    });
  }
}

/// Route census, kernel timings and BlockFitness::initialize of configs
/// (one or more job kinds) — the game and core.fitness layers timed from
/// outside any engine.
void game_layer_metrics(const std::vector<core::SimConfig>& cfgs,
                        const std::vector<std::uint64_t>& weights,
                        std::uint64_t seed, Result& r) {
  perfbench::RouteCounts routes;
  std::map<std::string, double> ns;
  double init_s = 0.0;
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    const core::SimConfig& cfg = cfgs[k];
    const core::PairEvaluator eval(cfg);
    const pop::Population pop = core::make_initial_population(cfg);
    perfbench::RouteCounts c = perfbench::count_routes(eval, pop);
    c.nway_spec *= weights[k];
    c.pure_exact *= weights[k];
    c.mem1_markov *= weights[k];
    c.sampled_stream *= weights[k];
    routes += c;
    time_routes(cfg, seed + k, ns);
    std::vector<double> reps;
    for (int rep = 0; rep < 3; ++rep) {
      core::BlockFitness block(cfg, 0, cfg.ssets);
      util::Timer t;
      block.initialize(pop);
      reps.push_back(t.seconds());
    }
    init_s += median(reps) * static_cast<double>(weights[k]);
  }
  r.metric("game.route.sampled_stream.pairs", static_cast<double>(routes.sampled_stream), "count");
  r.metric("game.route.mem1_markov.pairs", static_cast<double>(routes.mem1_markov), "count");
  r.metric("game.route.pure_exact.pairs", static_cast<double>(routes.pure_exact), "count");
  r.metric("game.route.nway_spec.pairs", static_cast<double>(routes.nway_spec), "count");
  for (const auto& [name, v] : ns) r.metric(name, v, "ns");
  r.metric("fitness.initialize_s", init_s, "s");
}

void counter_metrics(const obs::MetricsSnapshot& m, Result& r) {
  const auto c = [&m](const char* name) {
    return static_cast<double>(m.counter_value(name));
  };
  r.metric("fitness.pairs_evaluated", c("engine.pairs_evaluated"), "count");
  r.metric("fitness.games_played", c("engine.games_played"), "count");
  const double pairs = c("engine.pairs_evaluated");
  r.metric("fitness.dedup_hit_ratio",
           pairs > 0 ? 1.0 - c("engine.games_played") / pairs : 0.0, "ratio");
  r.metric("fitness.cache_inserts", c("fitness.cache_inserts"), "count");
  r.metric("fitness.cache_prunes", c("fitness.cache_prunes"), "count");
  r.metric("engine.pc_events", c("engine.pc_events"), "count");
  r.metric("engine.mutations", c("engine.mutations"), "count");
  r.metric("engine.adoptions", c("engine.adoptions"), "count");
  r.metric("fitness.game_play_s", m.histogram_seconds(obs::phase::kGamePlay), "s");
  r.metric("fitness.apply_update_s", m.histogram_seconds(obs::phase::kApplyUpdate), "s");
  r.metric("parallel.plan_bcast_s", m.histogram_seconds(obs::phase::kPlanBcast), "s");
  r.metric("parallel.fitness_return_s", m.histogram_seconds(obs::phase::kFitnessReturn), "s");
  r.metric("parallel.decision_bcast_s", m.histogram_seconds(obs::phase::kDecisionBcast), "s");
}

void traffic_metrics(const par::TrafficReport& t, std::uint64_t gens, Result& r) {
  const double g = static_cast<double>(std::max<std::uint64_t>(gens, 1));
  r.metric("comm.bcast_bytes_per_gen", static_cast<double>(t.bcast_bytes) / g, "B");
  r.metric("comm.p2p_bytes_per_gen", static_cast<double>(t.p2p_bytes) / g, "B");
  r.metric("comm.messages_per_gen", static_cast<double>(t.messages) / g, "count");
}

// -- engine workloads ---------------------------------------------------------

/// One engine workload: a config, how to run it at kRanks ranks, and the
/// single-process reference it must reproduce.
struct EngineWorkload {
  core::SimConfig config;
  std::uint64_t generations = 0;  // per timed call
  struct Run {
    std::uint64_t table_hash = 0;
    std::uint64_t fitness_hash = 0;
    int ranks_lost = 0;
    par::TrafficReport traffic;
    obs::MetricsSnapshot metrics;
  };
  std::function<Run(const core::SimConfig&)> run;        // kRanks ranks
  std::function<Run(const core::SimConfig&)> reference;  // one process
  const char* span = "bench.run";
};

template <class R>
EngineWorkload::Run to_run(const R& res, int ranks_lost) {
  return {res.population.table_hash(), core::hash_fitness(res.population.fitness()),
          ranks_lost, res.traffic, res.metrics};
}

EngineWorkload sampled_m6(std::uint64_t seed) {
  EngineWorkload w;
  core::SimConfig& c = w.config;
  c.memory = 6;
  c.ssets = 256;
  c.game.rounds = 200;
  c.game.noise = 0.02;
  c.pc_rate = 0.01;
  c.mutation_rate = 0.05;
  c.space = pop::StrategySpace::Pure;
  c.fitness_mode = core::FitnessMode::Sampled;
  c.comm_pattern = core::CommPattern::PaperBcast;
  c.seed = derive_seed(seed, 1);
  w.generations = 12;
  w.run = [](const core::SimConfig& cfg) {
    return to_run(core::run_parallel(cfg, kRanks), 0);
  };
  w.reference = [](const core::SimConfig& cfg) {
    return to_run(core::run_parallel(cfg, 1), 0);
  };
  w.span = "bench.run_parallel";
  return w;
}

ft::FtRunOptions ft_options() {
  ft::FtRunOptions o;
  o.checkpoint_every = 250;
  o.standby_replicas = 1;
  // Fault-free: a generous detector keeps a descheduled rank from being
  // evicted as a false positive on a loaded host.
  o.detect_timeout_ms = 5000.0;
  return o;
}

EngineWorkload analytic_churn_ft(std::uint64_t seed) {
  EngineWorkload w;
  core::SimConfig& c = w.config;
  c.memory = 1;
  c.ssets = 1024;
  c.game.noise = 0.02;
  c.pc_rate = 1.0;
  c.mutation_rate = 0.2;
  c.space = pop::StrategySpace::Mixed;
  c.fitness_mode = core::FitnessMode::Analytic;
  c.dedup = true;
  c.seed = derive_seed(seed, 2);
  w.generations = 1000;
  w.run = [](const core::SimConfig& cfg) {
    const ft::FtResult res = ft::run_parallel_ft(cfg, kRanks, ft_options());
    return to_run(res, res.ranks_lost);
  };
  w.reference = [](const core::SimConfig& cfg) {
    obs::MetricsRegistry reg;
    core::Engine engine(cfg, &reg);
    engine.run_all();
    EngineWorkload::Run out;
    out.table_hash = engine.population().table_hash();
    out.fitness_hash = core::hash_fitness(engine.population().fitness());
    out.metrics = reg.snapshot();
    return out;
  };
  w.span = "bench.run_parallel_ft";
  return w;
}

/// Median wall time of `reps` calls with generations = 0 (set-up only).
double measure_setup(const EngineWorkload& w,
                     const std::function<EngineWorkload::Run(const core::SimConfig&)>& fn,
                     int reps) {
  core::SimConfig zero = w.config;
  zero.generations = 0;
  std::vector<double> s;
  for (int k = 0; k < reps; ++k) {
    util::Timer t;
    fn(zero);
    s.push_back(t.seconds());
  }
  return median(s);
}

void check_run(const EngineWorkload::Run& got, const EngineWorkload::Run& ref,
               Result& r, const char* what) {
  r.check(got.table_hash == ref.table_hash && got.fitness_hash == ref.fitness_hash &&
              got.ranks_lost == 0,
          std::string(what) + ": table/fitness hash differs from the reference or a rank was lost");
}

void run_engine_workload(const EngineWorkload& w, double seconds, bool trace,
                         Result& r) {
  core::SimConfig cfg = w.config;
  cfg.generations = w.generations;
  const double g = static_cast<double>(w.generations);

  // The single-process reference: output oracle (and, traced, the
  // scaling baseline).
  util::Timer ref_timer;
  const EngineWorkload::Run ref = w.reference(cfg);
  const double ref_wall = ref_timer.seconds();

  const double setup = measure_setup(w, w.run, 5);
  const auto timed_call = [&](std::vector<double>& walls) {
    util::Timer t;
    EngineWorkload::Run got;
    try {
      got = w.run(cfg);
    } catch (const std::exception& e) {
      r.check(false, std::string("exception: ") + e.what());
      return got;
    }
    walls.push_back(t.seconds());
    check_run(got, ref, r, w.span);
    return got;
  };
  // Generations after set-up per second of the median call. (The fastest
  // call spread more between runs on a shared host: 15% against 2-6%.)
  const auto gens_per_s = [&](const std::vector<double>& walls) {
    return walls.empty() ? 0.0 : g / std::max(median(walls) - setup, 1e-9);
  };

  if (!trace) {
    std::vector<double> walls;
    util::Timer window;
    while (walls.size() < 2 || window.seconds() < seconds) {
      const std::uint64_t before = r.failed;
      timed_call(walls);
      if (r.failed > before) break;
    }
    std::fprintf(stderr, "ledger: %zu calls of %llu generations, wall s:", walls.size(),
                 static_cast<unsigned long long>(w.generations));
    for (double wall : walls) std::fprintf(stderr, " %.3f", wall);
    std::fprintf(stderr, "\n");
    r.metric("setup_s", setup, "s");
    r.metric("gens_per_s", gens_per_s(walls), "1/s");
    r.metric("latency_p50_s", quantile(walls, 0.5), "s");
    return;
  }

  // Traced run: one untraced and one traced call of the same fixed work,
  // so every count repeats exactly for a fixed seed.
  game_layer_metrics({cfg}, {1}, derive_seed(cfg.seed, 7), r);
  r.metric("nature.plan_s", ref.metrics.histogram_seconds(obs::phase::kPlanBcast), "s");
  r.metric("nature.decision_s", ref.metrics.histogram_seconds(obs::phase::kDecisionBcast), "s");
  std::vector<double> plain, traced;
  timed_call(plain);
  r.metric("proc.peak_rss_mb", peak_rss_mb(), "MB");  // before trace buffers
  obs::Tracer::instance().start(1 << 18);
  EngineWorkload::Run got;
  {
    obs::TraceSpan span(w.span, obs::kCatEngine);
    got = timed_call(traced);
  }
  const TraceDigest d = stop_and_digest();
  const double gps_plain = gens_per_s(plain), gps_traced = gens_per_s(traced);
  const double ref_gps = g / std::max(ref_wall - measure_setup(w, w.reference, 2), 1e-9);
  r.metric("par.scaling_eff", gps_plain / (kRanks * ref_gps), "ratio");
  r.metric("obs.trace_overhead_frac",
           gps_plain > 0 ? 1.0 - gps_traced / gps_plain : 0.0, "ratio");
  r.metric("obs.trace_dropped_events", static_cast<double>(d.dropped), "count");
  counter_metrics(got.metrics, r);
  traffic_metrics(got.traffic, w.generations, r);
  r.metric("comm.recv_wait_s", d.total_s(obs::kCommRecv), "s");
  r.metric("comm.rank_busy_imbalance", rank_busy_imbalance(d, kRanks), "ratio");
  r.metric("ft.log.bytes", static_cast<double>(got.metrics.counter_value("ft.log.bytes")), "B");
  r.metric("ft.log.appends", static_cast<double>(got.metrics.counter_value("ft.log.appends")), "count");
  r.metric("ft.checkpoint.writes", static_cast<double>(got.metrics.counter_value("ft.checkpoint.writes")), "count");
  r.metric("ft.checkpoint.bytes", static_cast<double>(got.metrics.counter_value("ft.checkpoint.bytes")), "B");
  r.metric("ft.checkpoint_s", d.total_s("phase.ft_checkpoint"), "s");
  r.metric("ft.resends", static_cast<double>(got.metrics.counter_value("ft.resends")), "count");
  r.metric("ft.false_alarms", static_cast<double>(got.metrics.counter_value("ft.false_alarms")), "count");
  put_ledger(r, engine_ledger(d));
}

// -- egtd_mix -----------------------------------------------------------------

/// Offered load of egtd_mix in jobs per second: about 20% of what two
/// workers of the seed commit complete with this job mix when every job
/// is due at once (31 jobs/s). Pinned; never adapted to the machine, so a
/// slower build shows as latency and backlog. (At 70% load the p50 job
/// latency spread 20% between seeds, from queueing alone.)
constexpr double kEgtdRate = 6.0;
constexpr std::uint64_t kJobGenerations = 1500;

struct Job {
  std::string tenant;
  core::SimConfig config;
  std::string spec;
  bool mixed = false;
};

std::vector<Job> egtd_jobs(std::uint64_t seed, std::size_t n) {
  // Exact proportions (tenants 50/30/20, half the jobs mixed), in a
  // seeded order: seeds change which job comes when, not the mix.
  std::mt19937_64 rng(derive_seed(seed, 3));
  std::vector<std::pair<const char*, bool>> kinds;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t pct = (i * 100) / n;
    kinds.emplace_back(pct < 50 ? "alpha" : pct < 80 ? "beta" : "gamma", i % 2 == 0);
  }
  std::shuffle(kinds.begin(), kinds.end(), rng);
  std::vector<Job> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    Job& j = jobs[i];
    j.tenant = kinds[i].first;
    j.mixed = kinds[i].second;
    core::SimConfig& c = j.config;
    c.ssets = 128;
    c.generations = kJobGenerations;
    c.fitness_mode = core::FitnessMode::Analytic;
    if (j.mixed) {
      c.memory = 1;
      c.space = pop::StrategySpace::Mixed;
      c.game.noise = 0.02;
    } else {
      c.memory = 2;
      c.space = pop::StrategySpace::Pure;
      c.mutation_rate = 0.2;
    }
    // Job specs travel as JSON, whose numbers are doubles: keep the seed
    // exactly representable.
    c.seed = derive_seed(seed, 100 + i) >> 12;
    j.spec = serve::job_spec_to_json(serve::JobSpec{j.tenant, c});
  }
  return jobs;
}

/// Serial reference of every job (table hash + seconds), on `threads`
/// threads, before anything is timed.
void egtd_references(const std::vector<Job>& jobs, unsigned threads,
                     std::vector<std::uint64_t>& hashes,
                     std::vector<double>& seconds) {
  hashes.assign(jobs.size(), 0);
  seconds.assign(jobs.size(), 0.0);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < jobs.size(); i = next++) {
        util::Timer timer;
        core::Engine engine(serve::parse_job_spec(jobs[i].spec).config);
        engine.run_all();
        seconds[i] = timer.seconds();
        hashes[i] = engine.population().table_hash();
      }
    });
  }
  for (auto& th : pool) th.join();
}

/// Event timestamps the scheduler's sink reports, per job.
struct JobTimes {
  double submitted = -1, first_started = -1, completed = -1;
  double attempt_s = 0.0;
};

/// Records attempt spans on the worker thread that ran them (the sink runs
/// there): the attempt's start is kept thread-locally until its end event.
struct AttemptRecorder {
  static thread_local std::int64_t started_ns;
  static thread_local std::uint64_t started_gen;

  static void on_event(const serve::JobEvent& ev) {
    if (!obs::Tracer::enabled()) return;
    using K = serve::JobEvent::Kind;
    if (ev.kind == K::Started) {
      started_ns = obs::Tracer::now_ns();
      started_gen = ev.generation;
      return;
    }
    if (ev.kind == K::Submitted || ev.kind == K::Rejected ||
        ev.kind == K::Recovered) {
      return;
    }
    obs::TraceEvent te;
    te.kind = obs::TraceEvent::Kind::Span;
    te.ts_ns = started_ns;
    te.dur_ns = obs::Tracer::now_ns() - started_ns;
    te.name = ev.kind == K::Completed   ? "serve.attempt_completed"
              : ev.kind == K::Preempted ? "serve.attempt_preempted"
                                        : "serve.attempt_other";
    te.cat = "serve";
    te.arg_name = "from_gen";
    te.arg = started_gen;
    obs::Tracer::record(te);
  }
};
thread_local std::int64_t AttemptRecorder::started_ns = 0;
thread_local std::uint64_t AttemptRecorder::started_gen = 0;

/// Ledger of the scheduler's workers over the serving window: per worker
/// lane a "serve.window" root (its self time is worker idle time), attempt
/// spans (self time: the residual), and inside each attempt a set-up part
/// (fresh engine or checkpoint resume, up to the first generation) and a
/// tail part (checkpoint commit or result journal, after the last one).
perfbench::Ledger serve_ledger(const TraceDigest& d, std::int64_t w0,
                               std::int64_t w1) {
  perfbench::Ledger total;
  for (const auto& [key, lane] : d.lanes) {
    std::vector<Span> spans = lane.spans;
    bool worker = false;
    for (std::size_t k = 0; k < lane.spans.size(); ++k) {
      const Span& a = lane.spans[k];
      if (a.name.rfind("serve.attempt", 0) != 0) continue;
      worker = true;
      std::int64_t first = a.end, last = a.start;
      for (const Span& s : lane.spans) {
        if (s.name == obs::kGenerationSpan && a.start <= s.start && s.end <= a.end) {
          first = std::min(first, s.start);
          last = std::max(last, s.end);
        }
      }
      if (first < a.end) {
        spans.push_back({lane.args[k] > 0 ? "serve.resume" : "serve.setup", a.start, first});
        spans.push_back({a.name == "serve.attempt_preempted" ? "serve.commit" : "serve.complete",
                         last, a.end});
      }
    }
    if (!worker) continue;
    total += perfbench::build_ledger({{"serve.window", w0, w1}}, spans,
                                     is_residual_span, layer_of);
  }
  return total;
}

/// The workloads' stated predictions, checked against the traced run; a
/// mismatch is reported on stderr (it is a finding, not a failed run).
void check_predictions(const std::string& workload, const Result& r) {
  const auto value = [&r](const std::string& name) {
    const auto it = r.metrics.find(name);
    return it == r.metrics.end() ? 0.0 : it->second.first;
  };
  const auto report = [&](bool ok, const std::string& what) {
    std::fprintf(stderr, "ledger: prediction %s: %s\n", ok ? "holds" : "MISMATCH",
                 what.c_str());
  };
  if (workload == "sampled_m6") {
    std::string top;
    double top_s = -1.0;
    for (const char* layer : kLedgerLayers) {
      const double v = value(std::string("ledger.") + layer + "_s");
      if (v > top_s) {
        top_s = v;
        top = layer;
      }
    }
    report(top == "fitness.game_play",
           "game play is the dominant self time (largest: " + top + ")");
  } else {
    report(value("game.route.sampled_stream.pairs") == 0.0,
           "no pair takes the sampled_stream route");
  }
  report(value("layers.unaccounted_frac") <= 0.10, "unaccounted share <= 10%");
}

std::atomic<serve::Scheduler*> g_live_scheduler{nullptr};

void report_unfinished(const serve::Scheduler& s) {
  for (const serve::JobStatus& st : s.statuses()) {
    if (st.state == serve::JobState::Queued || st.state == serve::JobState::Running) {
      std::fprintf(stderr,
                   "ledger: unfinished job %llu tenant=%s state=%s attempts=%u "
                   "preemptions=%u next_generation=%llu %s\n",
                   static_cast<unsigned long long>(st.id), st.tenant.c_str(),
                   serve::to_string(st.state), st.attempts, st.preemptions,
                   static_cast<unsigned long long>(st.next_generation),
                   st.failure.c_str());
    }
  }
}

void run_egtd_mix(std::uint64_t seed, double seconds, double rate, bool trace,
                  const std::string& data_root, Result& r) {
  const auto n = static_cast<std::size_t>(std::max(8.0, rate * seconds));
  const std::vector<Job> jobs = egtd_jobs(seed, n);
  std::vector<std::uint64_t> ref_hash;
  std::vector<double> ref_s;
  egtd_references(jobs, 2, ref_hash, ref_s);

  serve::SchedulerOptions opt;
  opt.workers = 2;
  opt.slice_generations = 500;
  opt.queue_capacity = n + 1;
  obs::MetricsRegistry serve_metrics;
  opt.metrics = &serve_metrics;
  namespace fs = std::filesystem;
  int dir_no = 0;
  const auto fresh_dir = [&] {
    const std::string dir = data_root + "/d" + std::to_string(dir_no++);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  };

  // Schedulers are deliberately never destroyed: Scheduler::shutdown()
  // sets its stop flag without the queue lock, so a worker between its
  // flag check and its wait misses the wake-up and join() hangs forever
  // (the stall the run deadline surfaces). Tearing down 16 schedulers per
  // run trips it; parked idle workers cost nothing until the process ends.
  // Set-up: construction + recover() + start(), on a fresh data dir.
  std::vector<double> setups;
  serve::Scheduler* sched = nullptr;
  for (int rep = 0; rep < 15; ++rep) {
    opt.data_dir = fresh_dir();
    util::Timer t;
    sched = new serve::Scheduler(opt);
    sched->recover();
    sched->start();
    setups.push_back(t.seconds());
  }
  // A fresh scheduler for the workload, with the event sink. The sink only
  // logs (job id, kind, time): it also fires inside submit(), before the
  // caller knows the id.
  opt.data_dir = fresh_dir();
  sched = new serve::Scheduler(opt);
  struct EventRec {
    std::uint64_t id;
    serve::JobEvent::Kind kind;
    Clock::time_point at;
  };
  std::mutex mu;
  std::vector<EventRec> events;
  sched->set_event_sink([&](const serve::JobEvent& ev) {
    AttemptRecorder::on_event(ev);
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    events.push_back({ev.job_id, ev.kind, now});
  });
  sched->recover();
  sched->start();
  g_live_scheduler = sched;

  if (trace) obs::Tracer::instance().start(1 << 20);
  // One instant on both clocks, to place the serving window in the trace.
  const std::int64_t trace_t0 = obs::Tracer::now_ns();
  const auto t0 = Clock::now();
  const auto since_t0 = [&t0](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  const std::vector<double> due =
      perfbench::poisson_schedule(n, rate, derive_seed(seed, 4));
  std::vector<serve::SubmitOutcome> outcomes(n);
  const std::vector<perfbench::Sent> sent = perfbench::run_open_loop(
      due, t0, [&](std::size_t i) { outcomes[i] = sched->submit(jobs[i].spec); });
  // Wait for every job with a wall deadline instead of drain(), so a stall
  // is reported (with every unfinished job's status) rather than hanging.
  const double deadline = due.back() + std::max(30.0, 2.0 * seconds);
  bool finished = false;
  while (true) {
    const auto st = sched->statuses();
    finished = std::none_of(st.begin(), st.end(), [](const serve::JobStatus& s) {
      return s.state == serve::JobState::Queued || s.state == serve::JobState::Running;
    });
    if (finished || since_t0(Clock::now()) > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  TraceDigest digest;
  if (trace) digest = stop_and_digest();
  if (!finished) {
    std::fprintf(stderr, "ledger: egtd_mix passed its %.0f s deadline\n", deadline);
    report_unfinished(*sched);
  }

  // Per-job event times (seconds since t0).
  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < n; ++i) {
    if (outcomes[i].accepted) index_of[outcomes[i].job_id] = i;
  }
  std::vector<JobTimes> times(n);
  {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<double> attempt_start(n, 0.0);
    for (const EventRec& ev : events) {
      const auto it = index_of.find(ev.id);
      if (it == index_of.end()) continue;
      JobTimes& jt = times[it->second];
      const double at = since_t0(ev.at);
      using K = serve::JobEvent::Kind;
      if (ev.kind == K::Submitted) {
        jt.submitted = at;
      } else if (ev.kind == K::Started) {
        if (jt.first_started < 0) jt.first_started = at;
        attempt_start[it->second] = at;
      } else if (ev.kind == K::Completed || ev.kind == K::Preempted ||
                 ev.kind == K::Retrying || ev.kind == K::Failed) {
        jt.attempt_s += at - attempt_start[it->second];
        if (ev.kind == K::Completed) jt.completed = at;
      }
    }
  }

  // Output checks: every job accepted, completed, and equal to its serial
  // reference.
  std::vector<double> latency, queue_wait, submit_ms, lag_ms;
  double gens = 0.0, last_done = 0.0, attempt_total = 0.0, ref_total = 0.0;
  serve::EngineCounters job_counters{};
  for (std::size_t i = 0; i < n; ++i) {
    const auto& o = outcomes[i];
    std::optional<serve::JobResult> res;
    if (o.accepted) res = sched->result(o.job_id);
    r.check(o.accepted && res && res->table_hash == ref_hash[i],
            "job " + std::to_string(i) + (o.accepted ? "" : " rejected: " + o.rejected) +
                (res ? " table hash differs from its serial run" : " did not complete"));
    submit_ms.push_back(sent[i].call_s * 1e3);
    lag_ms.push_back(sent[i].lag_s() * 1e3);
    const JobTimes& jt = times[i];
    if (!res || jt.completed < 0) continue;
    latency.push_back(jt.completed - due[i]);
    queue_wait.push_back(jt.first_started - jt.submitted);
    gens += static_cast<double>(res->generations);
    last_done = std::max(last_done, jt.completed);
    attempt_total += jt.attempt_s;
    ref_total += ref_s[i];
    job_counters = serve::counters_add(job_counters, res->counters);
  }
  // From the schedule's start (its last job is due at n / rate) to the
  // last completion, so a backlog lengthens it.
  const double window = last_done;
  std::fprintf(stderr,
               "ledger: egtd_mix %zu jobs, serial %.2f ms/job, attempts %.2f ms/job\n",
               n, 1e3 * ref_total / static_cast<double>(std::max<std::size_t>(latency.size(), 1)),
               1e3 * attempt_total / static_cast<double>(std::max<std::size_t>(latency.size(), 1)));
  // Left set when stuck: main then exits without running any teardown.
  if (finished) g_live_scheduler = nullptr;

  if (!trace) {
    r.metric("setup_s", median(setups), "s");
    r.metric("gens_per_s", window > 0 ? gens / window : 0.0, "1/s");
    r.metric("latency_p50_s", quantile(latency, 0.5), "s");
    return;
  }

  // Per-layer metrics.
  std::vector<core::SimConfig> kinds;
  std::vector<std::uint64_t> weights;
  for (bool mixed : {true, false}) {
    const auto it = std::find_if(jobs.begin(), jobs.end(),
                                 [mixed](const Job& j) { return j.mixed == mixed; });
    if (it == jobs.end()) continue;
    kinds.push_back(it->config);
    weights.push_back(static_cast<std::uint64_t>(std::count_if(
        jobs.begin(), jobs.end(), [mixed](const Job& j) { return j.mixed == mixed; })));
  }
  game_layer_metrics(kinds, weights, derive_seed(seed, 7), r);
  r.metric("serve.job_latency_p90_s", quantile(latency, 0.9), "s");
  r.metric("proc.peak_rss_mb", peak_rss_mb(), "MB");  // includes trace buffers
  r.metric("serve.jobs_per_s", window > 0 ? static_cast<double>(latency.size()) / window : 0.0, "1/s");
  r.metric("serve.submit_latency_p50_ms", quantile(submit_ms, 0.5), "ms");
  r.metric("serve.submit_latency_p90_ms", quantile(submit_ms, 0.9), "ms");
  r.metric("serve.queue_wait_p50_s", quantile(queue_wait, 0.5), "s");
  r.metric("serve.queue_wait_p90_s", quantile(queue_wait, 0.9), "s");
  r.metric("serve.attempt_run_s", attempt_total, "s");
  const obs::MetricsSnapshot sm = serve_metrics.snapshot();
  r.metric("serve.preemptions", static_cast<double>(sm.counter_value("serve.preemptions")), "count");
  r.metric("serve.jobs_resumed", static_cast<double>(sm.counter_value("serve.jobs_resumed")), "count");
  r.metric("serve.generator_lag_p90_ms", quantile(lag_ms, 0.9), "ms");

  // engine.* totals over every completed job (resume carries them exactly).
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  r.metric("fitness.pairs_evaluated", d(job_counters.pairs_evaluated), "count");
  r.metric("fitness.games_played", d(job_counters.games_played), "count");
  r.metric("fitness.dedup_hit_ratio",
           job_counters.pairs_evaluated > 0
               ? 1.0 - d(job_counters.games_played) / d(job_counters.pairs_evaluated)
               : 0.0,
           "ratio");
  r.metric("engine.pc_events", d(job_counters.pc_events), "count");
  r.metric("engine.mutations", d(job_counters.mutations), "count");
  r.metric("engine.adoptions", d(job_counters.adoptions), "count");

  // Checkpoint codec, timed from outside on one job of each kind at its
  // first slice boundary.
  std::vector<double> bytes, enc, res_s;
  for (const core::SimConfig& kind : kinds) {
    core::Engine engine(kind);
    engine.run(opt.slice_generations);
    for (int rep = 0; rep < 5; ++rep) {
      util::Timer te;
      std::vector<std::byte> blob = serve::encode_job_checkpoint(
          serve::capture_job_checkpoint(engine, serve::EngineCounters{}, 1, 0));
      enc.push_back(te.seconds());
      bytes.push_back(static_cast<double>(blob.size()));
      util::Timer tr;
      core::Engine resumed =
          serve::resume_job_engine(kind, serve::decode_job_checkpoint(blob));
      res_s.push_back(tr.seconds());
      if (rep == 0) {
        r.check(resumed.population().table_hash() == engine.population().table_hash(),
                "job checkpoint round trip");
      }
    }
  }
  double bsum = 0;
  for (double b : bytes) bsum += b;
  r.metric("ckpt.job_bytes_mean", bytes.empty() ? 0.0 : bsum / static_cast<double>(bytes.size()), "B");
  r.metric("ckpt.encode_s", median(enc), "s");
  r.metric("ckpt.resume_s", median(res_s), "s");
  const auto replay = serve::JobJournal::replay(opt.data_dir + "/jobs.wal");
  r.metric("journal.records", static_cast<double>(replay.records.size()), "count");
  std::error_code ec;
  const auto wal_bytes = fs::file_size(opt.data_dir + "/jobs.wal", ec);
  r.metric("journal.bytes", ec ? 0.0 : static_cast<double>(wal_bytes), "B");

  r.metric("fitness.game_play_s", digest.total_s(obs::phase::kGamePlay), "s");
  r.metric("fitness.apply_update_s", digest.total_s(obs::phase::kApplyUpdate), "s");
  r.metric("nature.plan_s", digest.total_s(obs::phase::kPlanBcast), "s");
  r.metric("nature.decision_s", digest.total_s(obs::phase::kDecisionBcast), "s");
  r.metric("obs.trace_dropped_events", static_cast<double>(digest.dropped), "count");
  const auto to_trace_ns = [trace_t0](double s) {
    return trace_t0 + static_cast<std::int64_t>(s * 1e9);
  };
  put_ledger(r, serve_ledger(digest, to_trace_ns(0.0), to_trace_ns(last_done)));
}

// -- provenance / main --------------------------------------------------------

void print_provenance(const std::string& workload, std::uint64_t seed, bool trace) {
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"simd_kernel\": \"%s\", \"force_scalar\": %s, \"avx2_compiled\": %s, "
      "\"cpu_avx2\": %s, \"hardware_threads\": %u}}\n",
      workload.c_str(), static_cast<unsigned long long>(seed), trace ? 1 : 0,
      game::simd::kernel_name(game::simd::active_kernel()),
      game::simd::force_scalar() ? "true" : "false",
      game::simd::compiled_with_avx2() ? "true" : "false",
      game::simd::cpu_supports_avx2() ? "true" : "false",
      std::thread::hardware_concurrency());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("ledger", "one workload of the layer-ledger benchmark");
  auto workload = cli.opt<std::string>("workload", "", "sampled_m6 | analytic_churn_ft | egtd_mix");
  auto seed = cli.opt<std::uint64_t>("seed", 1, "workload seed");
  auto seconds = cli.opt<double>("seconds", 10.0, "measured window per run");
  auto trace = cli.opt<int>("trace", 0, "1 = traced run, per-layer metrics");
  auto data_dir = cli.opt<std::string>("data-dir", ".bench_build/egtd_data", "egtd_mix journal directory");
  auto deadline = cli.opt<double>("deadline", 165.0, "wall deadline of the whole run, seconds");
  cli.parse(argc, argv);
  if (*workload != "sampled_m6" && *workload != "analytic_churn_ft" &&
      *workload != "egtd_mix") {
    std::fprintf(stderr, "ledger: unknown --workload '%s'\n", workload->c_str());
    return 2;
  }

  obs::TraceRankScope bench_pid(kBenchPid);
  obs::Tracer::set_thread_name("bench");
  print_provenance(*workload, *seed, *trace != 0);

  // Backstop: a run past its deadline is reported as failed, with the
  // scheduler's unfinished jobs, and the process exits without joining
  // whatever is stuck.
  std::mutex dl_mu;
  std::condition_variable dl_cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(dl_mu);
    if (dl_cv.wait_for(lock, std::chrono::duration<double>(*deadline), [&] { return done; })) return;
    std::fprintf(stderr, "ledger: run passed its %.0f s wall deadline\n", *deadline);
    if (serve::Scheduler* s = g_live_scheduler.load()) report_unfinished(*s);
    Result failed;
    failed.check(false, "wall deadline");
    failed.print();
    std::_Exit(0);
  });

  Result r;
  try {
    if (*workload == "sampled_m6") {
      run_engine_workload(sampled_m6(*seed), *seconds, *trace != 0, r);
    } else if (*workload == "analytic_churn_ft") {
      run_engine_workload(analytic_churn_ft(*seed), *seconds, *trace != 0, r);
    } else {
      std::filesystem::create_directories(*data_dir);
      const std::string dir = *data_dir + "/run" + std::to_string(::getpid());
      run_egtd_mix(*seed, *seconds, kEgtdRate, *trace != 0, dir, r);
      std::filesystem::remove_all(dir);
    }
  } catch (const std::exception& e) {
    r.check(false, std::string("exception: ") + e.what());
  }
  if (*trace != 0) {
    for (const auto& [name, unit] : kLayerMetrics) {
      if (r.metrics.find(name) == r.metrics.end()) r.metric(name, 0.0, unit);
    }
    for (const char* layer : kLedgerLayers) {
      const std::string name = std::string("ledger.") + layer + "_s";
      if (r.metrics.find(name) == r.metrics.end()) r.metric(name, 0.0, "s");
    }
    check_predictions(*workload, r);
  }
  {
    std::lock_guard<std::mutex> lock(dl_mu);
    done = true;
  }
  dl_cv.notify_all();
  watchdog.join();
  r.print();
  if (g_live_scheduler.load() != nullptr) std::_Exit(0);  // stuck workers
  return 0;
}
