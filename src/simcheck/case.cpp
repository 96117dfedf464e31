#include "simcheck/case.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>

#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/parallel_engine.hpp"
#include "ft/ft_engine.hpp"
#include "game/spec/registry.hpp"
#include "obs/metrics.hpp"
#include "simcheck/selftest.hpp"
#include "simcheck/trace.hpp"
#include "util/rng.hpp"

namespace egt::simcheck {

namespace {

using core::FitnessMode;
using core::InteractionSpec;

EngineCounters counters_from(const obs::MetricsSnapshot& s) {
  EngineCounters c;
  c.generations = s.counter_value("engine.generations");
  c.pc_events = s.counter_value("engine.pc_events");
  c.adoptions = s.counter_value("engine.adoptions");
  c.moran_events = s.counter_value("engine.moran_events");
  c.mutations = s.counter_value("engine.mutations");
  c.pairs_evaluated = s.counter_value("engine.pairs_evaluated");
  c.games_played = s.counter_value("engine.games_played");
  return c;
}

void finish_from_population(EngineOutcome& out, const pop::Population& pop) {
  out.table_hash = pop.table_hash();
  const auto fit = pop.fitness();
  out.fitness.assign(fit.begin(), fit.end());
}

EngineOutcome run_serial_variant(const core::SimConfig& config) {
  EngineOutcome out;
  obs::MetricsRegistry reg;
  TraceRecorder rec;
  core::Engine engine(config, &reg);
  engine.set_trace(&rec);
  engine.run_all();
  finish_from_population(out, engine.population());
  out.counters = counters_from(reg.snapshot());
  out.trace = rec.contiguous_points();
  out.ok = true;
  return out;
}

EngineOutcome run_restore_variant(const core::SimConfig& config,
                                  std::uint64_t restore_at) {
  EngineOutcome out;
  obs::MetricsRegistry reg;
  TraceRecorder rec;
  std::vector<std::byte> blob;
  {
    core::Engine first(config, &reg);
    first.set_trace(&rec);
    first.run(restore_at);
    blob = core::save_checkpoint(first);
  }
  core::Engine second = core::restore_checkpoint(config, blob, &reg);
  second.set_trace(&rec);
  second.run(config.generations - restore_at);
  finish_from_population(out, second.population());
  // The restore re-runs the initial all-pairs evaluation, so work counters
  // legitimately exceed an uninterrupted run's.
  out.counters_comparable = false;
  out.trace = rec.contiguous_points();
  if (config.fitness_mode == core::FitnessMode::Analytic) {
    // Full-row recompute vs incremental class-delta updates: fitness
    // matches to rounding only (see EngineOutcome::fitness_exact), so the
    // per-generation fitness hashes are meaningless too.
    out.fitness_exact = false;
    for (auto& p : out.trace) p.fitness_hash = 0;
  }
  out.ok = true;
  return out;
}

EngineOutcome run_parallel_variant(const core::SimConfig& config, int nranks) {
  EngineOutcome out;
  TraceRecorder rec;
  core::ParallelRunOptions opts;
  opts.trace = &rec;
  const auto result = core::run_parallel(config, nranks, opts);
  finish_from_population(out, result.population);
  out.counters = counters_from(result.metrics);
  out.trace = rec.contiguous_points();
  out.ok = true;
  return out;
}

EngineOutcome run_ft_variant(const CaseSpec& spec, bool faulty) {
  EngineOutcome out;
  TraceRecorder rec;
  ft::FtRunOptions opts;
  opts.checkpoint_every = spec.ft_checkpoint_every;
  // Generous failure-detection deadlines: the fuzz configs finish a
  // generation in microseconds, so these can absorb a heavily loaded CI
  // host without risking a false-positive eviction (which would be
  // trajectory-preserving but perturb the work counters we diff).
  opts.detect_timeout_ms = 2000.0;
  opts.ping_timeout_ms = 500.0;
  opts.max_pings = 2;
  opts.trace = &rec;
  if (faulty) {
    for (const auto& k : spec.kills) opts.plan.kill(k.rank, k.generation);
    for (const auto& t : spec.torn) {
      opts.plan.torn_checkpoint(t.rank, t.generation);
    }
  }
  const auto result = ft::run_parallel_ft(spec.config, spec.nranks, opts);
  finish_from_population(out, result.population);
  out.counters = counters_from(result.metrics);
  out.trace = rec.contiguous_points();
  if (faulty) {
    // Recovery off the block-checkpoint fast path recomputes fitness the
    // fault-free run never evaluated; the counters then legitimately
    // over-count. Sampled re-plays every generation anyway, so recovery
    // work is indistinguishable from normal work there.
    bool comparable = spec.torn.empty();
    if (spec.config.fitness_mode == FitnessMode::SampledFrozen) {
      // Frozen samples are (re)played lazily, so which pairs the dead rank
      // had already played — work its successor never repeats — depends on
      // the kill timing; the counters drift by a few pairs either way.
      comparable = false;
    } else if (spec.config.fitness_mode != FitnessMode::Sampled) {
      if (spec.ft_checkpoint_every == 0) comparable = false;
      for (const auto& k : spec.kills) {
        if (spec.ft_checkpoint_every == 0 ||
            k.generation % spec.ft_checkpoint_every != 0) {
          comparable = false;
        }
      }
    }
    out.counters_comparable = comparable;
  }
  out.ok = true;
  return out;
}

EngineOutcome run_variant(EngineKind kind, const CaseSpec& spec) {
  try {
    switch (kind) {
      case EngineKind::Serial:
        return run_serial_variant(spec.config);
      case EngineKind::SerialThreads: {
        auto cfg = spec.config;
        cfg.sset_threads = spec.sset_threads;
        cfg.agent_threads = spec.agent_threads;
        return run_serial_variant(cfg);
      }
      case EngineKind::SerialRestore:
        return run_restore_variant(spec.config, spec.restore_at);
      case EngineKind::Parallel: {
        auto cfg = spec.config;
        cfg.comm_pattern = core::CommPattern::PaperBcast;
        return run_parallel_variant(cfg, spec.nranks);
      }
      case EngineKind::ParallelReplicated: {
        auto cfg = spec.config;
        cfg.comm_pattern = core::CommPattern::ReplicatedNature;
        return run_parallel_variant(cfg, spec.nranks);
      }
      case EngineKind::ParallelFt:
        return run_ft_variant(spec, /*faulty=*/false);
      case EngineKind::ParallelFtFaulty:
        return run_ft_variant(spec, /*faulty=*/true);
      case EngineKind::SerialBrokenDedup:
        return run_broken_dedup(spec.config);
    }
    EngineOutcome out;
    out.error = "unknown engine kind";
    return out;
  } catch (const std::exception& e) {
    EngineOutcome out;
    out.error = e.what();
    return out;
  }
}

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void compare_outcome(CaseResult& result, EngineKind kind,
                     const EngineOutcome& ref, const EngineOutcome& out) {
  auto fail = [&](std::string what) {
    result.failures.push_back({kind, std::move(what)});
  };
  if (!out.ok) {
    fail("threw: " + out.error);
    return;
  }
  if (out.table_hash != ref.table_hash) {
    fail("final strategy table differs (hash " +
         std::to_string(out.table_hash) + " vs reference " +
         std::to_string(ref.table_hash) + ")");
  }
  if (out.fitness.size() != ref.fitness.size()) {
    fail("fitness vector size differs");
  } else {
    for (std::size_t i = 0; i < ref.fitness.size(); ++i) {
      const double a = ref.fitness[i];
      const double b = out.fitness[i];
      bool same = a == b;
      if (!same && !out.fitness_exact) {
        // Rounding-tolerant variants (see EngineOutcome::fitness_exact):
        // accept a relative error a handful of ulps wide.
        same = std::abs(a - b) <=
               1e-12 * std::max({1.0, std::abs(a), std::abs(b)});
      }
      if (!same) {
        fail("fitness of SSet " + std::to_string(i) + " differs: " +
             format_double(b) + " vs reference " + format_double(a));
        break;
      }
    }
  }
  if (out.trace_comparable && ref.trace_comparable) {
    if (const auto div = compare_traces(ref.trace, out.trace)) {
      fail("trace diverges at generation " +
           std::to_string(div->generation) + ": " + div->detail);
    }
  }
  if (out.counters_comparable) {
    auto diff = [&](const char* name, std::uint64_t a, std::uint64_t b) {
      if (a != b) {
        fail(std::string("counter ") + name + " differs: " +
             std::to_string(b) + " vs reference " + std::to_string(a));
      }
    };
    diff("engine.generations", ref.counters.generations,
         out.counters.generations);
    diff("engine.pc_events", ref.counters.pc_events, out.counters.pc_events);
    diff("engine.adoptions", ref.counters.adoptions, out.counters.adoptions);
    diff("engine.moran_events", ref.counters.moran_events,
         out.counters.moran_events);
    diff("engine.mutations", ref.counters.mutations, out.counters.mutations);
    diff("engine.pairs_evaluated", ref.counters.pairs_evaluated,
         out.counters.pairs_evaluated);
    // games_played is partition-dependent under dedup: a rank reuses
    // values only from rows it owns, so a class spanning blocks is
    // evaluated once per rank.
    // (Public-goods fitness is group-pooled: BlockFitness never
    // deduplicates it, so its games counter stays partition-independent
    // and comparable even with config.dedup set.)
    const bool dedup_active =
        result.spec.config.dedup &&
        result.spec.config.fitness_mode == core::FitnessMode::Analytic &&
        result.spec.config.game.kind != game::GameKind::PublicGoods;
    const bool multi_rank = kind == EngineKind::Parallel ||
                            kind == EngineKind::ParallelReplicated ||
                            kind == EngineKind::ParallelFt ||
                            kind == EngineKind::ParallelFtFaulty;
    if (!(dedup_active && multi_rank)) {
      diff("engine.games_played", ref.counters.games_played,
           out.counters.games_played);
    }
  }
}

}  // namespace

const char* engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::Serial: return "serial";
    case EngineKind::SerialThreads: return "serial_threads";
    case EngineKind::SerialRestore: return "serial_restore";
    case EngineKind::Parallel: return "parallel";
    case EngineKind::ParallelReplicated: return "parallel_replicated";
    case EngineKind::ParallelFt: return "parallel_ft";
    case EngineKind::ParallelFtFaulty: return "parallel_ft_faulty";
    case EngineKind::SerialBrokenDedup: return "serial_broken_dedup";
  }
  return "serial";
}

std::optional<EngineKind> engine_kind_from_name(const std::string& name) {
  for (const auto kind :
       {EngineKind::Serial, EngineKind::SerialThreads,
        EngineKind::SerialRestore, EngineKind::Parallel,
        EngineKind::ParallelReplicated, EngineKind::ParallelFt,
        EngineKind::ParallelFtFaulty, EngineKind::SerialBrokenDedup}) {
    if (name == engine_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

bool checkpoint_exact(const core::SimConfig& config) {
  if (config.fitness_mode == FitnessMode::Sampled) return true;
  if (config.fitness_mode == FitnessMode::Analytic) {
    return config.memory <= 1 ||
           (config.space == pop::StrategySpace::Pure &&
            config.game.noise == 0.0);
  }
  return false;
}

CaseSpec sample_case(std::uint64_t fuzz_seed) {
  util::SplitMix64 rng(util::mix64(fuzz_seed ^ 0x51c3c8ecca5e5eedULL));
  auto pick = [&](std::uint64_t lo, std::uint64_t hi) {  // inclusive
    return lo + rng() % (hi - lo + 1);
  };
  auto unit = [&] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  auto chance = [&](double p) { return unit() < p; };

  CaseSpec spec;
  spec.case_seed = fuzz_seed;
  auto& c = spec.config;

  c.memory = static_cast<int>(pick(1, 3));
  c.space = chance(0.5) ? pop::StrategySpace::Pure : pop::StrategySpace::Mixed;
  if (c.space == pop::StrategySpace::Pure) {
    c.mutation_kernel = chance(0.3) ? pop::MutationKernel::PureBitFlip
                                    : pop::MutationKernel::UniformProbs;
  } else {
    const auto roll = pick(0, 2);
    c.mutation_kernel = roll == 0   ? pop::MutationKernel::UniformProbs
                        : roll == 1 ? pop::MutationKernel::UShapedProbs
                                    : pop::MutationKernel::MixedGaussian;
  }
  c.mutation_bits = static_cast<std::uint32_t>(pick(1, 2));
  c.mutation_sigma = 0.05 + 0.15 * unit();

  const auto structure_roll = pick(0, 5);
  if (structure_roll == 4) {
    c.interaction.kind = InteractionSpec::Kind::Ring;
    c.ssets = static_cast<pop::SSetId>(pick(8, 18));
    c.interaction.ring_k = static_cast<std::uint32_t>(pick(1, 2));
  } else if (structure_roll == 5) {
    c.interaction.kind = InteractionSpec::Kind::Lattice2D;
    const auto w = pick(3, 4);
    const auto h = pick(3, 4);
    c.ssets = static_cast<pop::SSetId>(w * h);
    c.interaction.lattice_width = static_cast<pop::SSetId>(w);
    c.interaction.moore = chance(0.5);
  } else {
    c.ssets = static_cast<pop::SSetId>(pick(6, 20));
  }
  // Structured populations require the pairwise-comparison rule.
  c.update_rule = (!c.interaction.structured() && chance(0.25))
                      ? pop::UpdateRule::Moran
                      : pop::UpdateRule::PairwiseComparison;

  c.generations = pick(16, 64);
  c.game.rounds = static_cast<std::uint32_t>(pick(8, 32));
  c.game.noise = chance(0.3) ? 0.02 + 0.05 * unit() : 0.0;
  // ~45% of cases play a non-IPD preset from the registry (DESIGN.md §10):
  // other 2-action matrix games keep the sampled memory/kernels, while the
  // n-way and public-goods kinds drop to memory 0 (normalize_spec repairs
  // the kernel pairing below).
  if (chance(0.45)) {
    static const char* kPresets[] = {"hawk_dove",    "snowdrift", "stag_hunt",
                                     "coordination", "donation",  "rps",
                                     "pgg"};
    const game::GameSpec* preset = game::find_game(kPresets[pick(0, 6)]);
    const std::uint32_t rounds = static_cast<std::uint32_t>(pick(4, 16));
    const double noise = c.game.noise;
    c.game = *preset;
    c.game.rounds = rounds;
    c.game.noise = noise;
    if (c.game.requires_memory0()) c.memory = 0;
    if (c.game.kind == game::GameKind::PublicGoods &&
        !c.interaction.structured() && chance(0.5)) {
      // Half the PGG cases play k-sized ring windows instead of the one
      // global group.
      c.game.pgg_k = static_cast<std::uint32_t>(
          pick(2, std::min<std::uint64_t>(c.ssets, 6)));
    }
  }
  c.pc_rate = 0.2 + 0.6 * unit();
  c.mutation_rate = chance(0.15) ? 0.0 : 0.05 + 0.35 * unit();
  c.beta = 0.2 + 1.5 * unit();
  c.require_teacher_better = chance(0.25);
  const auto mode_roll = pick(0, 2);
  c.fitness_mode = mode_roll == 0   ? FitnessMode::Sampled
                   : mode_roll == 1 ? FitnessMode::SampledFrozen
                                    : FitnessMode::Analytic;
  c.fitness_scale = chance(0.5) ? core::FitnessScale::PerRoundAverage
                                : core::FitnessScale::Total;
  c.lookup =
      chance(0.2) ? game::LookupMode::LinearSearch : game::LookupMode::Indexed;
  c.dedup = chance(0.7);
  c.seed = rng() & 0xffffffffULL;
  c.sset_threads = 0;
  c.agent_threads = 0;

  spec.sset_threads = static_cast<unsigned>(pick(0, 2));
  spec.agent_threads = chance(0.3) ? static_cast<unsigned>(pick(1, 2)) : 0;
  spec.nranks = static_cast<int>(
      std::min<std::uint64_t>(pick(2, 4), c.ssets));

  spec.engines.push_back(EngineKind::Parallel);
  if (chance(0.6)) spec.engines.push_back(EngineKind::ParallelReplicated);
  if (spec.sset_threads > 0 || spec.agent_threads > 0) {
    spec.engines.push_back(EngineKind::SerialThreads);
  }
  if (checkpoint_exact(c) && chance(0.6)) {
    spec.restore_at = pick(1, c.generations - 1);
    spec.engines.push_back(EngineKind::SerialRestore);
  }
  const bool want_ft = chance(0.5);
  const bool want_faulty = spec.nranks >= 2 && chance(0.35);
  if (want_ft || want_faulty) {
    spec.ft_checkpoint_every = (want_faulty || chance(0.5)) ? 4 : 0;
  }
  if (want_ft) spec.engines.push_back(EngineKind::ParallelFt);
  if (want_faulty) {
    // Kills land on checkpoint boundaries so recovery takes the
    // block-restore fast path and the work counters stay diffable; torn
    // checkpoints (Sampled only — see run_ft_variant) then exercise the
    // CRC fallback at the cost of that comparability.
    const std::uint64_t last_boundary =
        (c.generations - 1) / spec.ft_checkpoint_every;
    const std::uint64_t kill_gen =
        spec.ft_checkpoint_every * pick(1, std::max<std::uint64_t>(
                                               1, last_boundary));
    const int kill_rank = static_cast<int>(pick(1, spec.nranks - 1));
    spec.kills.push_back({kill_rank, kill_gen});
    if (c.fitness_mode == FitnessMode::Sampled && chance(0.3)) {
      spec.torn.push_back({kill_rank, kill_gen});
    }
    spec.engines.push_back(EngineKind::ParallelFtFaulty);
  }
  const bool valid = normalize_spec(spec);
  (void)valid;  // by construction the sampled spec is valid
  return spec;
}

bool normalize_spec(CaseSpec& spec) {
  auto& c = spec.config;
  if (c.ssets < 2) c.ssets = 2;
  if (c.generations < 1) c.generations = 1;
  c.sset_threads = 0;
  c.agent_threads = 0;

  // Interaction constraints (see SimConfig::validate); fall back to the
  // well-mixed population when a shrink broke them.
  if (c.interaction.kind == InteractionSpec::Kind::Ring) {
    if (c.ssets < 3 || 2 * c.interaction.ring_k >= c.ssets) {
      c.interaction = InteractionSpec{};
    }
  } else if (c.interaction.kind == InteractionSpec::Kind::Lattice2D) {
    const auto w = c.interaction.lattice_width;
    if (w < 3 || c.ssets % w != 0 || c.ssets / w < 3) {
      c.interaction = InteractionSpec{};
    }
  }
  if (c.interaction.structured() &&
      c.update_rule != pop::UpdateRule::PairwiseComparison) {
    c.update_rule = pop::UpdateRule::PairwiseComparison;
  }
  // Kernel/space pairing.
  if (c.space == pop::StrategySpace::Pure) {
    if (c.mutation_kernel == pop::MutationKernel::UShapedProbs ||
        c.mutation_kernel == pop::MutationKernel::MixedGaussian) {
      c.mutation_kernel = pop::MutationKernel::UniformProbs;
    }
  } else if (c.mutation_kernel == pop::MutationKernel::PureBitFlip) {
    c.mutation_kernel = pop::MutationKernel::UniformProbs;
  }
  if (c.mutation_bits == 0) c.mutation_bits = 1;

  // Game-spec constraints (DESIGN.md §10; see SimConfig::validate).
  if (c.game.requires_memory0()) c.memory = 0;
  if (c.game.uses_nway() &&
      c.mutation_kernel != pop::MutationKernel::UniformProbs &&
      c.mutation_kernel != pop::MutationKernel::PureBitFlip) {
    c.mutation_kernel = pop::MutationKernel::UniformProbs;
  }
  if (c.game.kind == game::GameKind::PublicGoods) {
    if (c.interaction.structured()) c.game.pgg_k = 0;  // groups = graph
    if (c.game.pgg_k == 1 || c.game.pgg_k > c.ssets) c.game.pgg_k = 0;
  }

  spec.nranks = std::max(
      1, std::min(spec.nranks, static_cast<int>(c.ssets)));
  if (spec.restore_at >= c.generations) {
    spec.restore_at = c.generations > 1 ? c.generations / 2 : 0;
  }

  // Fault plan consistency.
  std::vector<ft::KillFault> kills;
  for (auto k : spec.kills) {
    if (k.rank < 1 || k.rank >= spec.nranks) continue;  // workers only
    if (k.generation >= c.generations) k.generation = c.generations - 1;
    if (spec.ft_checkpoint_every > 0 && k.generation > 0) {
      k.generation -= k.generation % spec.ft_checkpoint_every;
    }
    if (k.generation == 0) continue;  // gen-0 kills add no coverage here
    kills.push_back(k);
  }
  spec.kills = std::move(kills);
  std::vector<ft::TornCheckpointFault> torn;
  if (c.fitness_mode == FitnessMode::Sampled &&
      spec.ft_checkpoint_every > 0) {
    for (auto t : spec.torn) {
      if (t.rank < 0 || t.rank >= spec.nranks) continue;
      if (t.generation >= c.generations) continue;
      torn.push_back(t);
    }
  }
  spec.torn = std::move(torn);

  // Engine-list consistency.
  std::vector<EngineKind> engines;
  for (const auto kind : spec.engines) {
    switch (kind) {
      case EngineKind::Serial:
        continue;  // always run as the reference
      case EngineKind::SerialThreads:
        if (spec.sset_threads == 0 && spec.agent_threads == 0) continue;
        break;
      case EngineKind::SerialRestore:
        if (!checkpoint_exact(c) || spec.restore_at == 0) continue;
        break;
      case EngineKind::ParallelFtFaulty:
        if (spec.kills.empty() && spec.torn.empty()) continue;
        if (spec.nranks < 2) continue;
        // Frozen-mode fitness is not a pure function of (population,
        // generation) — it remembers when each pair was last replayed — so
        // any recovery that misses the checkpoint fast path (and a kill
        // racing the very checkpoint that would cover it can always force
        // that) resamples pairs differently. Not differentially testable;
        // skip rather than chase phantom divergences.
        if (c.fitness_mode == FitnessMode::SampledFrozen) continue;
        break;
      default:
        break;
    }
    if (std::find(engines.begin(), engines.end(), kind) == engines.end()) {
      engines.push_back(kind);
    }
  }
  spec.engines = std::move(engines);
  if (spec.engines.empty()) return false;
  try {
    c.validate();
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

CaseResult run_case(const CaseSpec& spec) {
  CaseResult result;
  result.spec = spec;
  result.reference = run_variant(EngineKind::Serial, spec);
  if (!result.reference.ok) {
    result.failures.push_back(
        {EngineKind::Serial, "reference threw: " + result.reference.error});
    return result;
  }
  for (const auto kind : spec.engines) {
    if (kind == EngineKind::Serial) continue;
    auto out = run_variant(kind, spec);
    compare_outcome(result, kind, result.reference, out);
    result.outcomes.emplace_back(kind, std::move(out));
  }
  return result;
}

}  // namespace egt::simcheck
