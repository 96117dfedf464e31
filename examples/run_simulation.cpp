// Production front door: run any simulation the library supports from the
// command line — serial or parallel, any memory depth, any fitness engine —
// with time-series CSV output, heat maps, checkpoint/restart and full
// observability (per-phase timing manifests, metrics CSV, progress
// heartbeats). This is the binary a domain scientist drives from a job
// script.
//
//   ./run_simulation --ssets 64 --memory 2 --generations 1e5 \
//       --space mixed --noise 0.02 --series run.csv --checkpoint run.ckpt
//   ./run_simulation ... --resume run.ckpt       # continue after a kill
//   ./run_simulation ... --checkpoint-dir ckpts --checkpoint-every 1000
//   ./run_simulation ... --resume ckpts          # newest intact checkpoint
//   ./run_simulation ... --metrics-out m.json    # egt.run_manifest/v4
//   ./run_simulation ... --trace-out run.trace.json  # Perfetto flight record
//   ./run_simulation ... --metrics-stream live.ndjson  # per-gen telemetry
//   ./run_simulation ... --ranks 8 --metrics-out m.json   # + per-rank traffic
//   ./run_simulation ... --ranks 8 --fault-plan faults.json  # ft engine
//   ./run_simulation ... --progress              # gen/s + ETA heartbeat
//   ./run_simulation --game hawk_dove ...        # preset matrix game
//   ./run_simulation --game pgg ...              # public goods group play
//   ./run_simulation --payoff "[[3,0],[5,1]]" ...  # custom 2x2 payoffs
//   ./run_simulation --list-games                # registry listing
//   ./run_simulation --game rps --memory 0 --preview  # mean-field ODE
//                                                # trajectory, no agents
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "analysis/coop.hpp"
#include "analysis/heatmap.hpp"
#include "analysis/kmeans.hpp"
#include "analysis/meanfield/preview.hpp"
#include "core/checkpoint.hpp"
#include "core/checkpoint_store.hpp"
#include "core/engine.hpp"
#include "core/observer.hpp"
#include "core/parallel_engine.hpp"
#include "ft/ft_engine.hpp"
#include "game/spec/registry.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_observer.hpp"
#include "obs/metrics_stream.hpp"
#include "obs/tracer.hpp"
#include "pop/stats.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace {

struct OutputPaths {
  std::string series;
  std::string heatmap;
  std::string checkpoint;
  std::string checkpoint_dir;  // rolling checkpoints (warn-and-continue)
  std::string resume;
  std::string manifest;     // legacy summary manifest (--manifest)
  std::string metrics_out;  // egt.run_manifest/v4 (--metrics-out)
  std::string metrics_csv;  // per-phase time-series CSV (--metrics-csv)
  std::string fault_plan;   // egt.fault_plan/v1 JSON (--fault-plan)
  std::string trace_out;       // Chrome trace JSON (--trace-out)
  std::string metrics_stream;  // live NDJSON telemetry (--metrics-stream)
  std::int64_t metrics_stream_every = 1;
  std::int64_t trace_capacity = 0;  // events per thread (0 = default)
  std::int64_t checkpoint_every = 0;
  int checkpoint_keep = 3;
  double ft_detect_ms = 500.0;
  double ft_ping_ms = 250.0;
  int ft_max_pings = 3;
  int ft_standby = 1;
  int ranks = 0;
  bool progress = false;
  bool list_games = false;
  bool preview = false;
  double max_wall_seconds = 0.0;  // 0 = no deadline
};

/// Graceful-shutdown request: SIGTERM/SIGINT land here and the serial
/// generation loop notices at its next boundary — the only place a stop
/// is safe (no checkpoint is ever cut mid-generation).
volatile std::sig_atomic_t g_stop_signal = 0;

extern "C" void request_stop(int sig) { g_stop_signal = sig; }

/// --payoff: a square JSON matrix of row-player payoffs. 2x2 tables map
/// onto the PayoffMatrix view (full memory-n iterated machinery); larger
/// tables become one-shot n-way matrix games.
[[noreturn]] void bad_payoff(const std::string& why) {
  throw std::invalid_argument(
      "--payoff expects a square JSON matrix of row-player payoffs, e.g. "
      "[[3,0],[5,1]]: " +
      why);
}

egt::game::GameSpec parse_payoff_matrix(const std::string& text) {
  using namespace egt;
  const util::JsonValue v = [&] {
    try {
      return util::JsonValue::parse(text);
    } catch (const std::exception& e) {
      bad_payoff(e.what());
    }
  }();
  if (!v.is_array() || v.items().empty()) bad_payoff("not a JSON array");
  const std::size_t m = v.items().size();
  if (m < 2 || m > 255) bad_payoff("need between 2 and 255 actions");
  std::vector<double> flat;
  flat.reserve(m * m);
  for (const auto& row : v.items()) {
    if (!row.is_array() || row.items().size() != m) {
      bad_payoff("every row must hold " + std::to_string(m) + " numbers");
    }
    for (const auto& e : row.items()) flat.push_back(e.as_number());
  }
  if (m == 2) {
    return game::GameSpec::matrix2(
        "custom", game::PayoffMatrix{flat[0], flat[1], flat[2], flat[3]});
  }
  return game::GameSpec::matrix_n("custom", static_cast<std::uint32_t>(m),
                                  std::move(flat));
}

egt::core::SimConfig build_config(egt::util::Cli& cli, int argc, char** argv,
                                  OutputPaths& out) {
  using namespace egt;
  auto memory = cli.opt<int>("memory", 1, "memory steps (0..6)");
  auto ssets = cli.opt<int>("ssets", 64, "number of SSets");
  auto gens = cli.opt<std::int64_t>("generations", 10000, "generations");
  auto rounds = cli.opt<int>("rounds", 200, "IPD rounds per game");
  auto noise = cli.opt<double>("noise", 0.0, "execution error rate");
  auto game_opt = cli.opt<std::string>(
      "game", "", "game preset from the registry (see --list-games)");
  auto payoff_opt = cli.opt<std::string>(
      "payoff", "",
      "custom row-player payoff matrix as square JSON rows, e.g. "
      "[[3,0],[5,1]] (2x2 plays iterated; larger plays one-shot n-way)");
  auto list_games =
      cli.flag("list-games", "list the registered game presets and exit");
  auto pc = cli.opt<double>("pc-rate", 0.1, "pairwise comparison rate");
  auto mu = cli.opt<double>("mu", 0.05, "mutation rate");
  auto beta = cli.opt<double>("beta", 1.0, "Fermi selection intensity");
  auto space = cli.opt<std::string>("space", "pure", "pure | mixed");
  auto kernel = cli.opt<std::string>(
      "kernel", "uniform", "uniform | ushaped | bitflip | gaussian");
  auto fitness = cli.opt<std::string>(
      "fitness", "analytic", "sampled | frozen | analytic");
  auto seed = cli.opt<std::uint64_t>("seed", 1234, "random seed");
  auto gate = cli.flag("teacher-better-gate",
                       "paper's gate: only adopt strictly better teachers");
  auto threads = cli.opt<int>(
      "threads", 0,
      "fitness worker threads per block (0 = serial): whole-block passes "
      "split rows, a strategy change's row rebuild splits its games");
  auto no_dedup = cli.flag(
      "no-dedup",
      "disable strategy-interned dedup (analytic fitness then plays "
      "every pair's game)");
  auto ranks_opt = cli.opt<int>(
      "ranks", 0, "run the parallel engine on N ranks (0 = serial engine)");
  auto series_opt = cli.opt<std::string>("series", "", "time-series CSV path");
  auto heatmap_opt =
      cli.opt<std::string>("heatmap", "", "final-population heat-map prefix");
  auto ckpt_opt = cli.opt<std::string>("checkpoint", "",
                                       "checkpoint file to write");
  auto ckpt_every = cli.opt<std::int64_t>(
      "checkpoint-every", 0, "also checkpoint every N generations");
  auto ckpt_dir = cli.opt<std::string>(
      "checkpoint-dir", "",
      "directory for rolling checkpoints (atomically committed "
      "checkpoint_g<gen>.bin every --checkpoint-every generations, newest "
      "--checkpoint-keep retained; unwritable paths warn instead of "
      "aborting the run)");
  auto ckpt_keep = cli.opt<int>(
      "checkpoint-keep", 3,
      "checkpoint generations retained (--checkpoint-dir pruning and the "
      "ft engine's block-checkpoint store)");
  auto resume_opt = cli.opt<std::string>(
      "resume", "",
      "checkpoint to resume from: a file, or a --checkpoint-dir directory "
      "(restores the newest intact generation, skipping corrupt files)");
  auto fault_plan_opt = cli.opt<std::string>(
      "fault-plan", "",
      "egt.fault_plan/v1 JSON of failures to inject; runs the "
      "fault-tolerant engine (requires --ranks)");
  auto ft_detect = cli.opt<double>(
      "ft-detect-ms", 500.0, "ft failure-detection reply deadline (ms)");
  auto ft_ping = cli.opt<double>(
      "ft-ping-ms", 250.0, "ft ping/pong probe deadline (ms)");
  auto ft_pings = cli.opt<int>(
      "ft-max-pings", 3, "ft probes before a suspected rank is declared dead");
  auto ft_standby = cli.opt<int>(
      "ft-standby", 1,
      "warm standby ranks replicating the ft decision log (Nature Agent "
      "failover; 0 makes the master a single point of failure again)");
  auto manifest_opt = cli.opt<std::string>(
      "manifest", "", "write a legacy JSON summary manifest here");
  auto metrics_out_opt = cli.opt<std::string>(
      "metrics-out", "",
      "write an egt.run_manifest/v4 JSON (per-phase times, counters, "
      "traffic) here");
  auto metrics_csv_opt = cli.opt<std::string>(
      "metrics-csv", "",
      "write the per-phase metrics time series (CSV) here");
  auto trace_out_opt = cli.opt<std::string>(
      "trace-out", "",
      "record a flight-recorder trace of the run and write Chrome "
      "trace-event JSON (Perfetto-loadable) here; inspect with trace_report");
  auto trace_capacity_opt = cli.opt<std::int64_t>(
      "trace-capacity", 0,
      "flight-recorder ring capacity in events per thread (0 = default "
      "65536; the ring keeps the newest events and reports the dropped "
      "count in the trace)");
  auto metrics_stream_opt = cli.opt<std::string>(
      "metrics-stream", "",
      "stream one egt.metrics_stream/v1 NDJSON line per generation here "
      "while the run is going (tail -f friendly)");
  auto metrics_stream_every = cli.opt<std::int64_t>(
      "metrics-stream-every", 1,
      "generations between --metrics-stream lines");
  auto max_wall = cli.opt<double>(
      "max-wall-seconds", 0.0,
      "stop gracefully after this much wall time (serial engine): a final "
      "checkpoint is written and the run exits cleanly, same as SIGTERM "
      "(0 = no deadline)");
  auto preview = cli.flag(
      "preview",
      "skip the agent simulation and integrate the mean-field replicator "
      "ODE instead (~1000x faster; well-mixed pure-strategy matrix games "
      "with memory <= 1 only)");
  auto progress = cli.flag(
      "progress", "heartbeat log with gen/s and ETA (implies --verbose)");
  auto verbose = cli.flag("verbose", "info-level logging");
  cli.parse(argc, argv);
  if (*verbose || *progress) util::set_log_level(util::LogLevel::Info);

  core::SimConfig cfg;
  out.list_games = *list_games;
  if (out.list_games) return cfg;
  if (!game_opt->empty() && !payoff_opt->empty()) {
    throw std::invalid_argument("--game and --payoff are mutually exclusive");
  }
  const bool custom_game = !game_opt->empty() || !payoff_opt->empty();
  if (!game_opt->empty()) {
    const game::GameSpec* preset = game::find_game(*game_opt);
    if (!preset) {
      throw std::invalid_argument("unknown game preset \"" + *game_opt +
                                  "\"; registered presets:\n" +
                                  game::registry_listing());
    }
    cfg.game = *preset;
  } else if (!payoff_opt->empty()) {
    cfg.game = parse_payoff_matrix(*payoff_opt);
  }
  cfg.memory = *memory;
  cfg.ssets = static_cast<egt::pop::SSetId>(*ssets);
  cfg.generations = static_cast<std::uint64_t>(*gens);
  // --rounds / --noise layer on top of a preset only when changed from
  // their CLI defaults; the preset's own values rule otherwise.
  if (!custom_game || *rounds != 200) {
    cfg.game.rounds = static_cast<std::uint32_t>(*rounds);
  }
  if (!custom_game || *noise != 0.0) cfg.game.noise = *noise;
  cfg.pc_rate = *pc;
  cfg.mutation_rate = *mu;
  cfg.beta = *beta;
  cfg.seed = *seed;
  cfg.require_teacher_better = *gate;
  cfg.threads = static_cast<unsigned>(*threads);
  cfg.dedup = !*no_dedup;
  cfg.space = *space == "mixed" ? egt::pop::StrategySpace::Mixed
                                : egt::pop::StrategySpace::Pure;
  if (*kernel == "ushaped") {
    cfg.mutation_kernel = egt::pop::MutationKernel::UShapedProbs;
  } else if (*kernel == "bitflip") {
    cfg.mutation_kernel = egt::pop::MutationKernel::PureBitFlip;
  } else if (*kernel == "gaussian") {
    cfg.mutation_kernel = egt::pop::MutationKernel::MixedGaussian;
  }
  if (*fitness == "sampled") {
    cfg.fitness_mode = core::FitnessMode::Sampled;
  } else if (*fitness == "frozen") {
    cfg.fitness_mode = core::FitnessMode::SampledFrozen;
  } else {
    cfg.fitness_mode = core::FitnessMode::Analytic;
  }
  if (cfg.game.requires_memory0() && cfg.memory != 0) {
    std::printf("note: %s plays without history; overriding --memory %d to 0\n",
                cfg.game.display_name.c_str(), *memory);
    cfg.memory = 0;
  }
  if (cfg.game.uses_nway() &&
      cfg.mutation_kernel != pop::MutationKernel::UniformProbs &&
      cfg.mutation_kernel != pop::MutationKernel::PureBitFlip) {
    std::printf(
        "note: n-way games mutate via uniform or bitflip kernels; using "
        "uniform\n");
    cfg.mutation_kernel = pop::MutationKernel::UniformProbs;
  }
  out.series = *series_opt;
  out.heatmap = *heatmap_opt;
  out.checkpoint = *ckpt_opt;
  out.checkpoint_dir = *ckpt_dir;
  out.resume = *resume_opt;
  out.fault_plan = *fault_plan_opt;
  out.ft_detect_ms = *ft_detect;
  out.ft_ping_ms = *ft_ping;
  out.ft_max_pings = *ft_pings;
  out.ft_standby = *ft_standby;
  out.manifest = *manifest_opt;
  out.metrics_out = *metrics_out_opt;
  out.metrics_csv = *metrics_csv_opt;
  out.trace_out = *trace_out_opt;
  out.trace_capacity = *trace_capacity_opt;
  out.metrics_stream = *metrics_stream_opt;
  out.metrics_stream_every = *metrics_stream_every;
  out.checkpoint_every = *ckpt_every;
  out.checkpoint_keep = *ckpt_keep;
  out.ranks = *ranks_opt;
  out.progress = *progress;
  out.preview = *preview;
  out.max_wall_seconds = *max_wall;
  return cfg;
}

/// --preview: integrate the mean-field replicator ODE compiled from the
/// exact same SimConfig instead of running agents (DESIGN.md §13). Prints
/// a trajectory table, the final class mix, and the cooperation headline.
int run_preview_mode(const egt::core::SimConfig& cfg) {
  using namespace egt;
  std::string why;
  if (!analysis::meanfield::preview_supported(cfg, &why)) {
    throw std::invalid_argument(
        "--preview cannot compile this config to a mean-field model: " + why +
        " (previews cover well-mixed pure-strategy matrix games with "
        "memory <= 1 under pairwise comparison)");
  }
  util::Timer timer;
  const auto r = analysis::meanfield::run_preview(cfg);
  const auto& traj = r.trajectory;
  std::printf("mean-field preview: replicator ODE over %zu strategy "
              "class(es), %llu accepted / %llu rejected steps\n",
              r.model.classes.size(),
              static_cast<unsigned long long>(traj.steps),
              static_cast<unsigned long long>(traj.rejected_steps));

  std::printf("%12s  %11s  %s\n", "generation", "cooperation",
              "leading class");
  const std::size_t samples = traj.times.size();
  const std::size_t rows = std::min<std::size_t>(13, samples);
  for (std::size_t row = 0; row < rows; ++row) {
    const std::size_t i = rows <= 1 ? 0 : row * (samples - 1) / (rows - 1);
    const auto& x = traj.states[i];
    const std::size_t lead = static_cast<std::size_t>(
        std::max_element(x.begin(), x.end()) - x.begin());
    std::printf("%12.0f  %11.4f  %s (%.3f)\n", traj.times[i],
                r.model.cooperation(x), r.model.labels[lead].c_str(),
                x[lead]);
  }

  std::vector<std::size_t> order(r.model.classes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return traj.final_state[a] > traj.final_state[b];
  });
  std::printf("final class mix:");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, order.size()); ++i) {
    std::printf(" %s=%.3f", r.model.labels[order[i]].c_str(),
                traj.final_state[order[i]]);
  }
  if (order.size() > 5) std::printf(" ...");
  std::printf("\nfinal cooperation: %.4f (initial %.4f)\n",
              r.final_cooperation, r.initial_cooperation);
  std::printf("wall time: %.3f s (no agents were simulated)\n",
              timer.seconds());
  return 0;
}

/// Headline cooperation statistic for the legacy manifest: expected play
/// cooperation for the 2-action iterated games, the mean action-0 /
/// contribution share otherwise.
double headline_cooperation(const egt::pop::Population& pop,
                            const egt::core::SimConfig& cfg,
                            double* mean_payoff) {
  using namespace egt;
  *mean_payoff = 0.0;
  if (cfg.game.uses_nway() || cfg.game.kind == game::GameKind::PublicGoods) {
    double share = 0.0;
    for (pop::SSetId i = 0; i < pop.size(); ++i) {
      const auto& s = pop.strategy(i);
      share += s.is_nway() ? s.as_nway().action_prob(0) : s.coop_prob(0);
    }
    return share / pop.size();
  }
  const auto coop =
      analysis::expected_play_cooperation(pop, cfg.game.ipd_params());
  *mean_payoff = coop.mean_payoff;
  return coop.mean_coop_rate;
}

/// The config fields both manifests record.
void write_config_fields(egt::util::JsonWriter& w,
                         const egt::core::SimConfig& cfg) {
  w.field("memory", cfg.memory);
  w.field("ssets", static_cast<std::uint64_t>(cfg.ssets));
  w.field("generations", cfg.generations);
  w.field("rounds", static_cast<std::uint64_t>(cfg.game.rounds));
  w.field("noise", cfg.game.noise);
  w.field("pc_rate", cfg.pc_rate);
  w.field("mutation_rate", cfg.mutation_rate);
  w.field("beta", cfg.beta);
  w.field("seed", cfg.seed);
}

void write_legacy_manifest(const std::string& path,
                           const egt::core::SimConfig& cfg,
                           const egt::pop::Population& pop,
                           double wall_seconds,
                           std::uint64_t pair_evaluations) {
  using namespace egt;
  std::ofstream out(path);
  util::JsonWriter w(out);
  w.begin_object();
  w.key("tool").value("egtsim/run_simulation");
  w.key("config").begin_object();
  w.field("summary", cfg.summary());
  write_config_fields(w, cfg);
  w.field("config_fingerprint", core::config_fingerprint(cfg));
  w.end_object();
  double mean_payoff = 0.0;
  const double play_coop = headline_cooperation(pop, cfg, &mean_payoff);
  const auto census = pop::census(pop);
  w.key("results").begin_object();
  w.field("dominant_fraction",
          static_cast<double>(census.front().count) / pop.size());
  w.field("distinct_strategies", static_cast<std::uint64_t>(census.size()));
  w.field("play_cooperation", play_coop);
  w.field("mean_payoff", mean_payoff);
  w.field("strategy_table_hash", pop.table_hash());
  w.field("wall_seconds", wall_seconds);
  w.field("pair_evaluations", pair_evaluations);
  w.end_object();
  w.end_object();
  out << "\n";
}

/// Shared config block of the egt.run_manifest/v4 output.
egt::obs::ManifestInfo manifest_info(const egt::core::SimConfig& cfg,
                                     int ranks, double wall_seconds) {
  using namespace egt;
  obs::ManifestInfo info;
  info.tool = "egtsim/run_simulation";
  info.config_summary = cfg.summary();
  info.config_fingerprint = core::config_fingerprint(cfg);
  info.game = &cfg.game;  // cfg outlives every manifest write in run_cli
  info.config_fields = [cfg](util::JsonWriter& w) {
    write_config_fields(w, cfg);
  };
  info.ranks = ranks;
  info.generations = cfg.generations;
  info.wall_seconds = wall_seconds;
  return info;
}

/// The manifest is written after the simulation has finished; a bad path
/// must not abort and discard an otherwise-complete run. Failures count to
/// obs.write_errors (every observability output shares that counter).
void try_write_metrics_manifest(const std::string& path,
                                const egt::obs::ManifestInfo& info,
                                egt::obs::MetricsRegistry& metrics) {
  try {
    egt::obs::write_run_manifest_file(path, info);
    std::printf("metrics manifest written: %s\n", path.c_str());
  } catch (const std::exception& e) {
    metrics.counter("obs.write_errors").inc();
    std::fprintf(stderr, "warning: %s\n", e.what());
  }
}

/// Start the flight recorder with run-identifying metadata baked into the
/// trace's otherData (trace_report --calibrate reads these back).
void start_tracer(const egt::core::SimConfig& cfg, int ranks,
                  std::int64_t capacity) {
  using namespace egt;
  const char* mode = cfg.fitness_mode == core::FitnessMode::Sampled
                         ? "sampled"
                         : cfg.fitness_mode == core::FitnessMode::SampledFrozen
                               ? "frozen"
                               : "analytic";
  auto& tracer = obs::Tracer::instance();
  tracer.set_meta("tool", "egtsim/run_simulation");
  tracer.set_meta("config_summary", cfg.summary());
  tracer.set_meta("memory", std::to_string(cfg.memory));
  tracer.set_meta("ssets", std::to_string(cfg.ssets));
  tracer.set_meta("rounds", std::to_string(cfg.game.rounds));
  tracer.set_meta("generations", std::to_string(cfg.generations));
  tracer.set_meta("ranks", std::to_string(ranks));
  tracer.set_meta("fitness_mode", mode);
  tracer.start(capacity > 0 ? static_cast<std::size_t>(capacity)
                            : obs::Tracer::kDefaultCapacity);
}

/// Stop the recorder and serialize the session. Same warn-and-continue
/// contract as --metrics-out: the simulation's results are already safe, a
/// bad trace path must not turn the run into a failure.
void try_write_trace(const std::string& path,
                     egt::obs::MetricsRegistry& metrics) {
  using namespace egt;
  auto& tracer = obs::Tracer::instance();
  tracer.stop();
  std::ofstream f(path);
  if (f) tracer.write_chrome_trace(f);
  if (f) {
    std::printf("trace written: %s (%llu events, %llu dropped)\n",
                path.c_str(),
                static_cast<unsigned long long>(tracer.recorded_events()),
                static_cast<unsigned long long>(tracer.dropped_events()));
  } else {
    metrics.counter("obs.write_errors").inc();
    std::fprintf(stderr, "warning: trace not written (cannot open %s)\n",
                 path.c_str());
  }
}

/// Open the live NDJSON stream; an unopenable path warns and streams
/// nothing (the run itself is unaffected).
std::unique_ptr<egt::obs::MetricsStreamWriter> open_metrics_stream(
    const OutputPaths& out, egt::obs::MetricsRegistry& metrics) {
  using namespace egt;
  if (out.metrics_stream.empty()) return nullptr;
  obs::MetricsStreamWriter::Options sopts;
  sopts.path = out.metrics_stream;
  sopts.every = out.metrics_stream_every > 0
                    ? static_cast<std::uint64_t>(out.metrics_stream_every)
                    : 1;
  auto writer = std::make_unique<obs::MetricsStreamWriter>(sopts);
  if (!writer->ok()) {
    metrics.counter("obs.write_errors").inc();
    std::fprintf(stderr,
                 "warning: metrics stream disabled (cannot open %s)\n",
                 out.metrics_stream.c_str());
    return nullptr;
  }
  return writer;
}

/// Rolling checkpoints must not kill a long run over a bad path: warn,
/// count (ft.checkpoint_write_errors) and keep simulating — same contract
/// as --metrics-out.
void try_commit_checkpoint(egt::core::CheckpointDir& dir, std::uint64_t gen,
                           const egt::core::Engine& engine,
                           egt::obs::MetricsRegistry& metrics, bool announce) {
  try {
    dir.commit(gen, egt::core::save_checkpoint(engine));
    if (announce) {
      std::printf("checkpoint written: %s/%s\n", dir.dir().c_str(),
                  egt::core::CheckpointDir::file_name(gen).c_str());
    }
  } catch (const std::exception& e) {
    metrics.counter("ft.checkpoint_write_errors").inc();
    std::fprintf(stderr, "warning: %s\n", e.what());
  }
}

/// Restore from a file or (newest intact generation of) a checkpoint
/// directory. Corrupt directory entries are skipped with a warning — the
/// CRC fallback path.
egt::core::Engine restore_engine(const egt::core::SimConfig& cfg,
                                 const std::string& from, int keep,
                                 egt::obs::MetricsRegistry* metrics) {
  using namespace egt;
  if (!std::filesystem::is_directory(from)) {
    return core::read_checkpoint_file(cfg, from, metrics);
  }
  core::CheckpointDir dir(from, keep);
  const auto loaded = dir.newest_intact(
      [](std::uint64_t gen, const std::string& why) {
        std::fprintf(stderr,
                     "warning: skipping corrupt checkpoint generation %llu "
                     "(%s); falling back to an older one\n",
                     static_cast<unsigned long long>(gen), why.c_str());
      });
  if (!loaded) {
    throw std::runtime_error("no intact checkpoint in directory: " + from);
  }
  return core::restore_checkpoint(cfg, loaded->payload, metrics);
}

void report(const egt::pop::Population& pop, const egt::core::SimConfig& cfg) {
  using namespace egt;
  std::printf("\nfinal population:\n%s", pop::format_census(pop, 5).c_str());
  if (cfg.game.uses_nway()) {
    // Pairwise IPD cooperation is undefined for n-way games; report the
    // population's mean action mix instead.
    std::vector<double> mix(cfg.game.actions, 0.0);
    for (pop::SSetId i = 0; i < pop.size(); ++i) {
      for (std::uint32_t a = 0; a < cfg.game.actions; ++a) {
        mix[a] += pop.strategy(i).as_nway().action_prob(a);
      }
    }
    std::printf("mean action mix:");
    for (std::uint32_t a = 0; a < cfg.game.actions; ++a) {
      std::printf(" %s=%.3f", cfg.game.label(a).c_str(), mix[a] / pop.size());
    }
    std::printf("\n");
    return;
  }
  if (cfg.game.kind == game::GameKind::PublicGoods) {
    double contrib = 0.0;
    for (pop::SSetId i = 0; i < pop.size(); ++i) {
      contrib += pop.strategy(i).coop_prob(0);
    }
    std::printf("mean contribution propensity: %.3f\n", contrib / pop.size());
    return;
  }
  const auto coop = analysis::expected_play_cooperation(pop, cfg.game.ipd_params());
  std::printf("expected play cooperation: %.3f (mean per-round payoff %.3f)\n",
              coop.mean_coop_rate, coop.mean_payoff);
}

/// The tail of a run_parallel or run_parallel_ft run: report, stream line,
/// both manifests (metrics include any ft.* family) and wall time.
template <typename Result>
int finish_ranked_run(const egt::core::SimConfig& cfg, const OutputPaths& out,
                      const egt::util::Timer& timer,
                      const egt::obs::MetricsStreamWriter* stream,
                      egt::obs::MetricsRegistry& metrics,
                      const Result& result) {
  using namespace egt;
  report(result.population, cfg);
  const double wall = timer.seconds();
  if (stream) {
    std::printf("metrics stream written: %s (%llu lines)\n",
                stream->path().c_str(),
                static_cast<unsigned long long>(stream->lines_written()));
  }
  if (!out.metrics_out.empty()) {
    obs::ManifestInfo info = manifest_info(cfg, out.ranks, wall);
    info.metrics = &result.metrics;
    info.traffic = &result.traffic;
    try_write_metrics_manifest(out.metrics_out, info, metrics);
  }
  if (!out.manifest.empty()) {
    write_legacy_manifest(out.manifest, cfg, result.population, wall,
                          result.metrics.counter_value(
                              "engine.pairs_evaluated"));
    std::printf("manifest written: %s\n", out.manifest.c_str());
  }
  std::printf("wall time: %.2f s\n", wall);
  return 0;
}

}  // namespace

int run_cli(int argc, char** argv) {
  using namespace egt;
  util::Cli cli("run_simulation", "configurable evolutionary-dynamics run");
  OutputPaths out;
  const core::SimConfig cfg = build_config(cli, argc, argv, out);
  if (out.list_games) {
    std::printf("%s", game::registry_listing().c_str());
    return 0;
  }
  if (out.preview) {
    std::printf("previewing: %s\n", cfg.summary().c_str());
    return run_preview_mode(cfg);
  }

  std::printf("running: %s\n", cfg.summary().c_str());
  util::Timer timer;
  obs::MetricsRegistry metrics;
  const auto stream = open_metrics_stream(out, metrics);
  if (!out.trace_out.empty()) {
    start_tracer(cfg, std::max(out.ranks, 1), out.trace_capacity);
  }

  if (!out.fault_plan.empty() && out.ranks <= 0) {
    throw std::invalid_argument("--fault-plan requires --ranks N (N >= 1)");
  }
  if (out.ranks > 0 && !out.resume.empty()) {
    throw std::invalid_argument(
        "--resume is a serial-engine feature; the parallel "
        "engines replay from generation 0");
  }

  if (!out.fault_plan.empty()) {
    // Fault-tolerant engine: injected failures, detection and recovery.
    ft::FtRunOptions fopts;
    fopts.plan = ft::FaultPlan::from_file(out.fault_plan);
    fopts.checkpoint_every =
        out.checkpoint_every > 0
            ? static_cast<std::uint64_t>(out.checkpoint_every)
            : 0;
    fopts.detect_timeout_ms = out.ft_detect_ms;
    fopts.ping_timeout_ms = out.ft_ping_ms;
    fopts.max_pings = out.ft_max_pings;
    fopts.standby_replicas = out.ft_standby;
    fopts.checkpoint_keep = out.checkpoint_keep;
    fopts.metrics = &metrics;
    fopts.metrics_stream = stream.get();
    const auto result = ft::run_parallel_ft(cfg, out.ranks, fopts);
    if (!out.trace_out.empty()) try_write_trace(out.trace_out, metrics);
    std::printf(
        "fault-tolerant run on %d ranks: %d rank(s) lost, %d failover(s), "
        "%llu recover(ies), %llu block(s) restored, %llu recomputed\n",
        out.ranks, result.ranks_lost, result.failovers,
        static_cast<unsigned long long>(
            result.metrics.counter_value("ft.recoveries")),
        static_cast<unsigned long long>(
            result.metrics.counter_value("ft.recovery.blocks_restored")),
        static_cast<unsigned long long>(
            result.metrics.counter_value("ft.recovery.blocks_recomputed")));
    return finish_ranked_run(cfg, out, timer, stream.get(), metrics, result);
  }

  if (out.ranks > 0) {
    // Parallel engine: same trajectory, message-passing execution.
    core::ParallelRunOptions popts;
    popts.metrics = &metrics;
    popts.progress = out.progress;
    popts.metrics_stream = stream.get();
    const auto result = core::run_parallel(cfg, out.ranks, popts);
    if (!out.trace_out.empty()) try_write_trace(out.trace_out, metrics);
    const auto& t = result.traffic;
    std::printf(
        "parallel run on %d ranks: %llu msgs / %llu bytes "
        "(bcast %llu/%llu, p2p %llu/%llu)\n",
        out.ranks, static_cast<unsigned long long>(t.messages),
        static_cast<unsigned long long>(t.bytes),
        static_cast<unsigned long long>(t.bcast_messages),
        static_cast<unsigned long long>(t.bcast_bytes),
        static_cast<unsigned long long>(t.p2p_messages),
        static_cast<unsigned long long>(t.p2p_bytes));
    return finish_ranked_run(cfg, out, timer, stream.get(), metrics, result);
  }

  core::Engine engine =
      out.resume.empty()
          ? core::Engine(cfg, &metrics)
          : restore_engine(cfg, out.resume, out.checkpoint_keep, &metrics);
  if (!out.resume.empty()) {
    std::printf("resumed from %s at generation %llu\n", out.resume.c_str(),
                static_cast<unsigned long long>(engine.generation()));
  }

  // Rolling crash-consistent checkpoints (construction sweeps .tmp orphans
  // left by a crash mid-commit). Pre-register the write-error counter so a
  // clean run's manifest reports it as 0 explicitly.
  std::optional<core::CheckpointDir> rolling;
  if (!out.checkpoint_dir.empty()) {
    rolling.emplace(out.checkpoint_dir, out.checkpoint_keep);
    metrics.counter("ft.checkpoint_write_errors");
  }

  core::MultiObserver obs;
  auto recorder = std::make_unique<core::TimeSeriesRecorder>(
      std::max<std::uint64_t>(1, cfg.generations / 200));
  const core::TimeSeriesRecorder& recorder_ref = *recorder;
  obs.add(std::move(recorder));

  if (stream) {
    obs.add(std::make_unique<obs::MetricsStreamObserver>(*stream, metrics));
  }

  if (!out.metrics_csv.empty() || out.progress) {
    obs::MetricsObserverOptions mopts;
    mopts.csv_path = out.metrics_csv;
    mopts.sample_interval = std::max<std::uint64_t>(1, cfg.generations / 200);
    mopts.progress = out.progress;
    mopts.total_generations = cfg.generations;
    obs.add(std::make_unique<obs::MetricsObserver>(metrics, mopts));
  }

  if (!out.checkpoint.empty() && out.checkpoint_every > 0) {
    obs.add(std::make_unique<core::CallbackObserver>(
        [&](const pop::Population&, const core::GenerationRecord& r) {
          if (r.generation != 0 &&
              r.generation %
                      static_cast<std::uint64_t>(out.checkpoint_every) ==
                  0) {
            core::write_checkpoint_file(engine, out.checkpoint);
          }
        }));
  }
  if (rolling && out.checkpoint_every > 0) {
    obs.add(std::make_unique<core::CallbackObserver>(
        [&](const pop::Population&, const core::GenerationRecord& r) {
          if (r.generation != 0 &&
              r.generation %
                      static_cast<std::uint64_t>(out.checkpoint_every) ==
                  0) {
            try_commit_checkpoint(*rolling, r.generation, engine, metrics,
                                  /*announce=*/false);
          }
        }));
  }

  const std::uint64_t remaining =
      cfg.generations > engine.generation()
          ? cfg.generations - engine.generation()
          : 0;

  // Serial generation loop with graceful-shutdown points: SIGTERM/SIGINT
  // and the --max-wall-seconds deadline both stop the run at the next
  // generation boundary, commit a final checkpoint, and exit cleanly —
  // never mid-write. The run is then resumable with --resume.
  std::signal(SIGTERM, request_stop);
  std::signal(SIGINT, request_stop);
  std::string stop_reason;
  for (std::uint64_t g = 0; g < remaining; ++g) {
    if (g_stop_signal != 0) {
      stop_reason = g_stop_signal == SIGTERM ? "SIGTERM" : "SIGINT";
      break;
    }
    if (out.max_wall_seconds > 0.0 && timer.seconds() > out.max_wall_seconds) {
      stop_reason = "--max-wall-seconds deadline";
      break;
    }
    engine.step();
    obs.on_generation(engine.population(), engine.last_record());
  }
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  if (!stop_reason.empty()) {
    std::printf("stopping early (%s) at generation %llu\n", stop_reason.c_str(),
                static_cast<unsigned long long>(engine.generation()));
    if (out.checkpoint.empty() && !rolling) {
      std::fprintf(stderr,
                   "warning: no --checkpoint/--checkpoint-dir; progress up to "
                   "generation %llu is lost\n",
                   static_cast<unsigned long long>(engine.generation()));
    }
  }
  if (!out.trace_out.empty()) try_write_trace(out.trace_out, metrics);
  if (stream) {
    std::printf("metrics stream written: %s (%llu lines)\n",
                stream->path().c_str(),
                static_cast<unsigned long long>(stream->lines_written()));
  }

  if (!out.checkpoint.empty()) {
    core::write_checkpoint_file(engine, out.checkpoint);
    std::printf("checkpoint written: %s\n", out.checkpoint.c_str());
  }
  if (rolling) {
    try_commit_checkpoint(*rolling, engine.generation(), engine, metrics,
                          /*announce=*/true);
  }
  if (!out.series.empty()) {
    recorder_ref.write_csv(out.series);
    std::printf("time series written: %s (%zu samples)\n", out.series.c_str(),
                recorder_ref.samples().size());
  }
  if (!out.metrics_csv.empty()) {
    std::printf("metrics time series written: %s\n", out.metrics_csv.c_str());
  }
  if (!out.heatmap.empty()) {
    const auto rows = analysis::strategy_matrix(engine.population());
    const auto clusters = analysis::kmeans(rows, 8);
    analysis::HeatmapOptions opt;
    opt.cell_width = 24;
    opt.cell_height = 2;
    opt.row_order = analysis::cluster_sorted_order(clusters);
    analysis::write_heatmap_ppm(out.heatmap + "_final.ppm", rows, opt);
    std::printf("heat map written: %s_final.ppm\n", out.heatmap.c_str());
  }

  report(engine.population(), cfg);
  const double wall = timer.seconds();
  if (!out.metrics_out.empty()) {
    const obs::MetricsSnapshot snap = metrics.snapshot();
    obs::ManifestInfo info = manifest_info(cfg, /*ranks=*/0, wall);
    info.metrics = &snap;
    try_write_metrics_manifest(out.metrics_out, info, metrics);
  }
  if (!out.manifest.empty()) {
    write_legacy_manifest(out.manifest, cfg, engine.population(), wall,
                          engine.pairs_evaluated());
    std::printf("manifest written: %s\n", out.manifest.c_str());
  }
  std::printf("wall time: %.2f s (%llu pair evaluations)\n", wall,
              static_cast<unsigned long long>(engine.pairs_evaluated()));
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
