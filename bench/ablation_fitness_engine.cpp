// Ablation: fitness-engine variants.
//
//   Sampled        — the paper's behaviour: replay every game every
//                    generation (O(ssets^2 * rounds) per generation).
//   SampledFrozen  — play each pair once, refresh on strategy change.
//   Analytic       — exact expected payoffs (cycle detection / Markov).
//   Analytic rows additionally run with strategy-interned dedup on and
//   off — the pairs vs games columns show what interning saves on a
//   population that PC imitation has driven toward few unique strategies.
//
// All variants produce the identical trajectory for deterministic games
// (asserted in tests); this bench shows what each costs. --json writes an
// egt.bench_fitness/v1 document (consumed by tools/bench_check in the CI
// perf-smoke job).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "game/simd.hpp"
#include "game/spec/registry.hpp"
#include "obs/tracer.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace egt;
  util::Cli cli("ablation_fitness_engine",
                "sampled vs frozen vs analytic fitness evaluation, with and "
                "without strategy-interned dedup");
  auto ssets = cli.opt<int>("ssets", 48, "number of SSets");
  auto gens = cli.opt<std::int64_t>("generations", 300, "generations");
  auto warmup = cli.opt<int>("warmup", 1,
                            "untimed warmup runs per variant (touch caches, "
                            "fault in pages, settle the clock governor)");
  auto repeats = cli.opt<int>(
      "repeats", 3, "timed runs per variant; min wall time is reported");
  auto json_out = cli.opt<std::string>(
      "json", "", "write an egt.bench_fitness/v1 JSON document here");
  cli.parse(argc, argv);

  core::SimConfig base;
  base.ssets = static_cast<pop::SSetId>(*ssets);
  base.memory = 2;
  base.generations = static_cast<std::uint64_t>(*gens);
  base.pc_rate = 0.1;
  base.mutation_rate = 0.05;
  base.seed = 99;

  std::cout << "fitness-engine ablation — " << base.summary() << "\n\n";

  struct Variant {
    std::string name;
    core::SimConfig cfg;
    bool traced = false;        ///< run with the flight recorder enabled
    bool force_scalar = false;  ///< pin the scalar batch kernel for the run
    bool time_setup = false;    ///< time the engine's initial evaluation too
  };
  std::vector<Variant> variants;
  {
    auto cfg = base;
    cfg.fitness_mode = core::FitnessMode::Sampled;
    variants.push_back({"sampled (paper)", cfg});
    // The flight-recorder overhead row: identical run, tracer on. CI's
    // bench_check --trace-overhead gates the wall-time delta vs the
    // untraced row above; the counters and hash must not move at all.
    variants.push_back({"sampled (paper) + trace", cfg, /*traced=*/true});
    cfg.fitness_mode = core::FitnessMode::SampledFrozen;
    variants.push_back({"sampled-frozen", cfg});
    cfg.fitness_mode = core::FitnessMode::Analytic;
    cfg.dedup = false;
    variants.push_back({"analytic (no dedup)", cfg});
    cfg.dedup = true;
    variants.push_back({"analytic + dedup", cfg});
    // The dedup showcase: memory-one pure strategies converge onto a few
    // classes under imitation, so almost every pair is a cache hit.
    auto conv = base;
    conv.fitness_mode = core::FitnessMode::Analytic;
    conv.memory = 1;
    conv.ssets = 256;
    conv.pc_rate = 0.6;
    conv.mutation_rate = 0.01;
    conv.dedup = false;
    variants.push_back({"converged-256 (no dedup)", conv});
    conv.dedup = true;
    variants.push_back({"converged-256 + dedup", conv});
    // The m-action analytic kernel (DESIGN.md §10): rock-paper-scissors
    // played through the n-way stationary-distribution solve instead of
    // the binary memory-n Markov engine.
    auto rps = base;
    rps.fitness_mode = core::FitnessMode::Analytic;
    rps.memory = 0;
    rps.game = *game::find_game("rps");
    variants.push_back({"analytic rps (n-way)", rps});
    // The mem1-markov batch kernel (DESIGN.md §12): mixed memory-one
    // strategies never cycle, so every pair goes through the analytic
    // stationary solve — the row the SoA/AVX2 batch kernels accelerate.
    // The forced-scalar twin pins the scalar fallback's cost so a
    // dispatch regression (silently losing the AVX2 path) shows up as a
    // kernel-row delta rather than hiding inside run-to-run noise.
    auto mem1 = base;
    mem1.fitness_mode = core::FitnessMode::Analytic;
    mem1.memory = 1;
    mem1.space = pop::StrategySpace::Mixed;
    mem1.dedup = false;
    variants.push_back({"analytic mem1-markov (no dedup)", mem1});
    variants.push_back(
        {"analytic mem1-markov scalar", mem1, false, /*force_scalar=*/true});
    mem1.dedup = true;
    variants.push_back({"analytic mem1-markov + dedup", mem1});
    // The same kernel at the analytic_churn_ft shape (perfbench): 1024
    // mixed memory-one SSets under 2% noise. Its timer includes the
    // engine's construction, whose initial evaluation is ~10^6 distinct
    // pairs, so the row is nearly all kernel and sits far above the perf
    // gate's noise floor, where the 48-SSet rows above do not.
    auto churn = mem1;
    churn.ssets = 1024;
    churn.game.noise = 0.02;
    churn.pc_rate = 1.0;
    churn.mutation_rate = 0.2;
    churn.generations = 100;
    variants.push_back({"analytic mem1-markov churn-1024", churn, false,
                        false, /*time_setup=*/true});
    // The sampled lane kernel (DESIGN.md §12): the paper's noisy
    // memory-six pure play re-sampled every generation, where game play is
    // nearly all of the work. 40 generations put the row well above the
    // perf gate's noise floor; the forced-scalar twin pins the scalar
    // width's cost the same way the mem1-markov twin does, and
    // tools/bench_check gates the pair's wall ratio within one run.
    auto m6 = base;
    m6.fitness_mode = core::FitnessMode::Sampled;
    m6.memory = 6;
    m6.game.noise = 0.02;
    m6.generations = 40;
    variants.push_back({"sampled m6 noisy", m6});
    variants.push_back({"sampled m6 noisy scalar", m6, false,
                        /*force_scalar=*/true});
  }

  struct Result {
    std::string name;
    double wall_s = 0.0;
    std::uint64_t pairs = 0;
    std::uint64_t games = 0;
    std::string hash;
  };
  std::vector<Result> results;
  util::TextTable table({"engine", "wall time (s)", "pair evaluations",
                         "games played", "final table hash"});
  // Timing discipline: each variant gets --warmup untimed runs (the first
  // run of a process pays for page faults, branch-predictor and allocator
  // warmup — single-shot timing once recorded a *traced* run as faster
  // than its untraced twin purely from run order), then --repeats timed
  // runs of which the minimum is reported. min-of-N is the standard
  // estimator for a deterministic workload: noise is strictly additive.
  for (const auto& v : variants) {
    Result r;
    r.name = v.name;
    r.wall_s = 0.0;
    const int timed = std::max(1, *repeats);
    for (int run = -std::max(0, *warmup); run < timed; ++run) {
      if (v.traced) obs::Tracer::instance().start();
      if (v.force_scalar) game::simd::set_force_scalar(true);
      util::Timer t;
      core::Engine engine(v.cfg);
      if (!v.time_setup) t.reset();
      engine.run_all();
      const double wall = t.seconds();
      if (v.force_scalar) game::simd::set_force_scalar(false);
      if (v.traced) {
        obs::Tracer::instance().stop();
        obs::Tracer::instance().clear();  // measure recording, not serializing
      }
      if (run < 0) continue;  // warmup: never timed
      if (run == 0 || wall < r.wall_s) r.wall_s = wall;
      // Counters and hash are deterministic across repeats; take them from
      // the first timed run and verify the rest agree.
      if (run == 0) {
        r.pairs = engine.pairs_evaluated();
        r.games = engine.games_played();
        char hash[32];
        std::snprintf(hash, sizeof hash, "%016llx",
                      static_cast<unsigned long long>(
                          engine.population().table_hash()));
        r.hash = hash;
      } else if (r.pairs != engine.pairs_evaluated() ||
                 r.games != engine.games_played()) {
        std::cerr << "FATAL [" << v.name
                  << "]: counters diverged across repeats\n";
        return 1;
      }
    }
    table.add_row({r.name, std::to_string(r.wall_s), std::to_string(r.pairs),
                   std::to_string(r.games), r.hash});
    results.push_back(std::move(r));
  }
  table.print(std::cout);
  std::cout << "\nhashes must match within each config: the engines differ "
               "only in cost. Dedup leaves pair evaluations (and the "
               "trajectory) untouched and collapses games played to "
               "O(classes^2) per full pass.\n";

  if (!json_out->empty()) {
    std::ofstream os(*json_out);
    if (!os) {
      std::cerr << "cannot write " << *json_out << "\n";
      return 1;
    }
    util::JsonWriter w(os);
    w.begin_object();
    w.field("schema", "egt.bench_fitness/v1");
    w.key("config");
    w.begin_object();
    w.field("ssets", static_cast<std::uint64_t>(base.ssets));
    w.field("generations", base.generations);
    w.field("seed", base.seed);
    w.field("warmup", static_cast<std::uint64_t>(std::max(0, *warmup)));
    w.field("repeats", static_cast<std::uint64_t>(std::max(1, *repeats)));
    // The sampled kernel's width on this host, for bench_check's twin
    // ratio gate (rows forced scalar run at 1 whatever this says).
    w.field("stream_lanes",
            static_cast<std::uint64_t>(game::simd::stream_lanes()));
    w.end_object();
    w.key("rows");
    w.begin_array();
    for (const auto& r : results) {
      w.begin_object();
      w.field("name", r.name);
      w.field("wall_s", r.wall_s);
      w.field("pairs_evaluated", r.pairs);
      w.field("games_played", r.games);
      w.field("table_hash", r.hash);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
    std::cout << "wrote " << *json_out << "\n";
  }
  return 0;
}
