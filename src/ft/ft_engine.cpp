#include "ft/ft_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/fitness.hpp"
#include "core/parallel_engine.hpp"
#include "core/wire.hpp"
#include "ft/block_checkpoint.hpp"
#include "ft/decision_log.hpp"
#include "ft/injector.hpp"
#include "ft/ownership.hpp"
#include "ft/protocol.hpp"
#include "obs/metrics_stream.hpp"
#include "obs/tracer.hpp"
#include "par/comm.hpp"
#include "pop/nature.hpp"
#include "util/check.hpp"

namespace egt::ft {

namespace {

using core::wire::Reader;
using core::wire::Writer;

// -- instruments --------------------------------------------------------------

// Same phase timers and "engine.*" counters as the base engines (so serial,
// parallel and ft manifests are directly comparable), plus the "ft.*"
// family. The master-family counters (engine.generations, the event
// counters incremented by the apply stages, the failure detector's
// tallies) exist only on ranks that actually are the master: rank 0 from
// launch, and any standby from the moment it wins an election (promote()).
// Registering them on every rank would multiply the merged event counts,
// because the apply stages run on every rank.
struct FtInstruments {
  // Every rank.
  obs::Histogram* game_play = nullptr;
  obs::Histogram* plan = nullptr;
  obs::Histogram* fitness_return = nullptr;
  obs::Histogram* decision = nullptr;
  obs::Histogram* apply = nullptr;
  obs::Histogram* ckpt = nullptr;
  obs::Histogram* recovery = nullptr;
  obs::Histogram* election = nullptr;
  obs::Counter* pairs = nullptr;           // engine.pairs_evaluated
  obs::Counter* games = nullptr;           // engine.games_played
  obs::Counter* recovery_pairs = nullptr;  // ft.recovery.pairs_evaluated
  obs::Counter* recovery_games = nullptr;  // ft.recovery.games_played
  obs::Counter* ckpt_writes = nullptr;
  obs::Counter* ckpt_bytes = nullptr;
  obs::Counter* ckpt_fallback = nullptr;
  obs::Counter* ckpt_torn = nullptr;
  obs::Counter* blocks_restored = nullptr;
  obs::Counter* blocks_recomputed = nullptr;
  obs::Counter* heals = nullptr;
  obs::Counter* kills = nullptr;
  obs::Counter* log_appends = nullptr;  // standby side: records accepted
  obs::Counter* elections = nullptr;    // election rounds entered
  obs::Counter* failovers = nullptr;    // elections won (takeovers)
  // Masters only (null until promote()).
  obs::Counter* generations = nullptr;
  obs::Counter* pc_events = nullptr;
  obs::Counter* adoptions = nullptr;
  obs::Counter* moran_events = nullptr;
  obs::Counter* mutations = nullptr;
  obs::Counter* failures = nullptr;
  obs::Counter* recoveries = nullptr;
  obs::Counter* suspects = nullptr;
  obs::Counter* false_alarms = nullptr;
  obs::Counter* resends = nullptr;
  obs::Counter* stale = nullptr;
  obs::Counter* log_records = nullptr;  // master side: records replicated
  obs::Counter* log_bytes = nullptr;
  // The rank's registry itself, for components that register their own
  // counter family (BlockFitness's "fitness.*").
  obs::MetricsRegistry* registry = nullptr;

  FtInstruments(obs::MetricsRegistry& reg, bool is_master) {
    registry = &reg;
    game_play = &reg.histogram(obs::phase::kGamePlay);
    plan = &reg.histogram(obs::phase::kPlanBcast);
    fitness_return = &reg.histogram(obs::phase::kFitnessReturn);
    decision = &reg.histogram(obs::phase::kDecisionBcast);
    apply = &reg.histogram(obs::phase::kApplyUpdate);
    ckpt = &reg.histogram("phase.ft_checkpoint");
    recovery = &reg.histogram("phase.ft_recovery");
    election = &reg.histogram("phase.ft_election");
    pairs = &reg.counter("engine.pairs_evaluated");
    games = &reg.counter("engine.games_played");
    recovery_pairs = &reg.counter("ft.recovery.pairs_evaluated");
    recovery_games = &reg.counter("ft.recovery.games_played");
    ckpt_writes = &reg.counter("ft.checkpoint.writes");
    ckpt_bytes = &reg.counter("ft.checkpoint.bytes");
    ckpt_fallback = &reg.counter("ft.checkpoint.fallbacks");
    ckpt_torn = &reg.counter("ft.faults.checkpoints_torn");
    blocks_restored = &reg.counter("ft.recovery.blocks_restored");
    blocks_recomputed = &reg.counter("ft.recovery.blocks_recomputed");
    heals = &reg.counter("ft.heals");
    kills = &reg.counter("ft.faults.kills");
    log_appends = &reg.counter("ft.log.appends");
    elections = &reg.counter("ft.elections");
    failovers = &reg.counter("ft.failovers");
    if (is_master) promote(reg);
  }

  /// Register the master-family counters; called at construction on rank 0
  /// (so a fault-free run's manifest still reports ft.recoveries = 0
  /// explicitly) and at election victory on a promoted standby.
  void promote(obs::MetricsRegistry& reg) {
    if (generations != nullptr) return;
    generations = &reg.counter("engine.generations");
    pc_events = &reg.counter("engine.pc_events");
    adoptions = &reg.counter("engine.adoptions");
    moran_events = &reg.counter("engine.moran_events");
    mutations = &reg.counter("engine.mutations");
    failures = &reg.counter("ft.failures_detected");
    recoveries = &reg.counter("ft.recoveries");
    suspects = &reg.counter("ft.suspected_ranks");
    false_alarms = &reg.counter("ft.false_alarms");
    resends = &reg.counter("ft.resends");
    stale = &reg.counter("ft.stale_messages");
    log_records = &reg.counter("ft.log.records");
    log_bytes = &reg.counter("ft.log.bytes");
  }

  static void inc(obs::Counter* c, std::uint64_t n = 1) {
    if (c != nullptr) c->inc(n);
  }
};

// -- owned fitness blocks -----------------------------------------------------

// A rank's set of owned fitness blocks. Starts as the single fault-free
// BlockPartition range; grows when ranges are adopted from dead ranks.
// Pairs accounting follows the fault-free ledger: startup initialization
// and per-generation work count to "engine.pairs_evaluated" (so the merged
// total matches a fault-free run under kill-only plans); work that only
// exists because of recovery counts to "ft.recovery.pairs_evaluated".
class BlockSet {
 public:
  BlockSet(const core::SimConfig& config,
           std::shared_ptr<const pop::InteractionGraph> graph,
           FtInstruments& ins)
      : config_(config), graph_(std::move(graph)), ins_(ins) {}

  bool cached_mode() const noexcept {
    return config_.fitness_mode != core::FitnessMode::Sampled;
  }

  /// Matrix width a valid checkpoint of this config carries: ssets for the
  /// pairwise cached modes, 0 for Sampled — and 0 for cached public-goods
  /// blocks, whose fitness is group-pooled (no pairwise matrix; see
  /// core::BlockFitness::pairwise_cached). The fast paths below must match
  /// on this, not on ssets, or cached PGG checkpoints would never restore.
  std::uint32_t expected_matrix_cols() const noexcept {
    if (!cached_mode()) return 0;
    if (config_.game.kind == game::GameKind::PublicGoods) return 0;
    return config_.ssets;
  }

  /// Fault-free startup block: initialization counts to engine.pairs, as
  /// in the base engines.
  void add_initial(pop::SSetId begin, pop::SSetId end,
                   const pop::Population& pop) {
    Block blk{core::BlockFitness(config_, begin, end, graph_, ins_.registry),
               {},
               0,
               0};
    {
      obs::ScopedTimer t(ins_.game_play);
      obs::TraceSpan span(obs::phase::kGamePlay, obs::kCatPhase);
      blk.fit.initialize(pop);
      span.set_arg("games", blk.fit.games_played());
    }
    blk.accounted = blk.fit.pairs_evaluated();
    ins_.pairs->inc(blk.accounted);
    blk.games_accounted = blk.fit.games_played();
    ins_.games->inc(blk.games_accounted);
    blk.snapshot.assign(blk.fit.block().size(), 0.0);
    blocks_.push_back(std::move(blk));
  }

  void begin_generation(const pop::Population& pop, std::uint64_t gen) {
    obs::ScopedTimer t(ins_.game_play);
    obs::TraceSpan span(obs::phase::kGamePlay, obs::kCatPhase);
    for (Block& b : blocks_) {
      b.fit.begin_generation(pop, gen);
      b.snapshot.assign(b.fit.block().begin(), b.fit.block().end());
    }
    changed_this_gen_.clear();
    account_engine_pairs();
  }

  void strategy_changed(pop::SSetId k, const pop::Population& pop,
                        std::uint64_t gen) {
    for (Block& b : blocks_) b.fit.strategy_changed(k, pop, gen);
    changed_this_gen_.push_back(k);
  }

  bool owns(pop::SSetId i) const noexcept {
    for (const Block& b : blocks_) {
      if (i >= b.fit.row_begin() && i < b.fit.row_end()) return true;
    }
    return false;
  }

  bool owns_range(pop::SSetId begin, pop::SSetId end) const noexcept {
    for (const Block& b : blocks_) {
      if (b.fit.row_begin() == begin && b.fit.row_end() == end) return true;
    }
    return false;
  }

  double fitness(pop::SSetId i) const {
    for (const Block& b : blocks_) {
      if (i >= b.fit.row_begin() && i < b.fit.row_end()) {
        return b.fit.fitness(i);
      }
    }
    EGT_REQUIRE_MSG(false, "fitness query on unowned SSet");
    return 0.0;
  }

  /// Current fitness of every owned block into `full` (indexed by SSet).
  void fill_current(std::vector<double>& full) const {
    for (const Block& b : blocks_) {
      std::copy(b.fit.block().begin(), b.fit.block().end(),
                full.begin() + b.fit.row_begin());
    }
  }

  /// Top-of-generation snapshot of every owned block into `full`.
  void fill_snapshot(std::vector<double>& full) const {
    for (const Block& b : blocks_) {
      std::copy(b.snapshot.begin(), b.snapshot.end(),
                full.begin() + b.fit.row_begin());
    }
  }

  /// Append every owned block as (begin, end, doubles) using `snapshot` or
  /// current values — the BLOCKS / FINAL reply payload.
  void encode_ranges(Writer& w, bool snapshot) const {
    w.u32(static_cast<std::uint32_t>(blocks_.size()));
    for (const Block& b : blocks_) {
      w.u32(b.fit.row_begin());
      w.u32(b.fit.row_end());
      if (snapshot) {
        w.doubles(b.snapshot.data(), b.snapshot.size());
      } else {
        w.doubles(b.fit.block().data(), b.fit.block().size());
      }
    }
  }

  /// Adopt range [begin, end) from a dead rank, mid-generation `gen`.
  /// `pop` is the current population replica; `pop_gen_start` its state at
  /// the top of `gen` (before this generation's updates).
  ///
  /// Fast path: an intact covering block checkpoint restores the exact
  /// doubles (bit-exact, zero games). Recompute path: Sampled re-plays the
  /// block with this generation's streams from the top-of-generation
  /// population (bit-exact by purity; counts to engine.pairs exactly as
  /// the dead rank's evaluation would have); cached modes re-initialize
  /// from scratch and replay this generation's strategy changes (recovery
  /// work, counts to ft.recovery.pairs_evaluated).
  void adopt(pop::SSetId begin, pop::SSetId end, const pop::Population& pop,
             const pop::Population& pop_gen_start, std::uint64_t gen,
             const CheckpointStore& store, std::uint64_t fingerprint) {
    obs::ScopedTimer t(ins_.recovery);
    obs::TraceSpan span("phase.ft_recovery", obs::kCatFt, "begin", begin);
    Block blk{core::BlockFitness(config_, begin, end, graph_, ins_.registry),
               {},
               0,
               0};
    const std::optional<BlockCheckpoint> hit =
        lookup(store, begin, end, gen, pop);
    if (hit && cached_mode() && hit->matrix_cols == expected_matrix_cols() &&
        hit->config_fingerprint == fingerprint) {
      blk.fit.restore_state(hit->fitness_slice(begin, end),
                            hit->matrix_slice(begin, end));
      blk.snapshot.assign(blk.fit.block().begin(), blk.fit.block().end());
      FtInstruments::inc(ins_.blocks_restored);
    } else {
      if (cached_mode()) {
        blk.fit.initialize(pop_gen_start);
        FtInstruments::inc(ins_.recovery_pairs, blk.fit.pairs_evaluated());
        FtInstruments::inc(ins_.recovery_games, blk.fit.games_played());
        blk.accounted = blk.fit.pairs_evaluated();
        blk.games_accounted = blk.fit.games_played();
      }
      blk.fit.begin_generation(pop_gen_start, gen);
      ins_.pairs->inc(blk.fit.pairs_evaluated() - blk.accounted);
      blk.accounted = blk.fit.pairs_evaluated();
      ins_.games->inc(blk.fit.games_played() - blk.games_accounted);
      blk.games_accounted = blk.fit.games_played();
      // Snapshot = top-of-generation values, before this generation's
      // updates (which are replayed on top for the cached modes below).
      blk.snapshot.assign(blk.fit.block().begin(), blk.fit.block().end());
      // Replay each change against the population as of that change:
      // strategy_changed reads every column but k's as current.
      pop::Population replay = pop_gen_start;
      for (pop::SSetId k : changed_this_gen_) {
        replay.set_strategy(k, pop.strategy(k));
        blk.fit.strategy_changed(k, replay, gen);
      }
      FtInstruments::inc(ins_.recovery_pairs,
                         blk.fit.pairs_evaluated() - blk.accounted);
      FtInstruments::inc(ins_.recovery_games,
                         blk.fit.games_played() - blk.games_accounted);
      FtInstruments::inc(ins_.blocks_recomputed);
    }
    blk.accounted = blk.fit.pairs_evaluated();
    blk.games_accounted = blk.fit.games_played();
    blocks_.push_back(std::move(blk));
  }

  /// Adopt range [begin, end) at a generation boundary: no generation is
  /// in flight, `gen` is the next one to run, and the caller's main loop
  /// will run begin_generation over every block — including this one — when
  /// it starts. So the block only needs the state begin_generation builds
  /// on: a checkpoint restore (cached modes; any intact entry whose table
  /// hash matches is bit-exact) or a from-scratch initialize; Sampled
  /// blocks need nothing at all, the next begin_generation replays them.
  void adopt_at_boundary(pop::SSetId begin, pop::SSetId end,
                         const pop::Population& pop, std::uint64_t gen,
                         const CheckpointStore& store,
                         std::uint64_t fingerprint) {
    obs::ScopedTimer t(ins_.recovery);
    obs::TraceSpan span("phase.ft_recovery", obs::kCatFt, "begin", begin);
    Block blk{core::BlockFitness(config_, begin, end, graph_, ins_.registry),
               {},
               0,
               0};
    const std::optional<BlockCheckpoint> hit =
        lookup(store, begin, end, gen, pop);
    if (hit && cached_mode() && hit->matrix_cols == expected_matrix_cols() &&
        hit->config_fingerprint == fingerprint) {
      blk.fit.restore_state(hit->fitness_slice(begin, end),
                            hit->matrix_slice(begin, end));
      FtInstruments::inc(ins_.blocks_restored);
    } else {
      if (cached_mode()) {
        blk.fit.initialize(pop);
        FtInstruments::inc(ins_.recovery_pairs, blk.fit.pairs_evaluated());
        FtInstruments::inc(ins_.recovery_games, blk.fit.games_played());
      }
      FtInstruments::inc(ins_.blocks_recomputed);
    }
    blk.accounted = blk.fit.pairs_evaluated();
    blk.games_accounted = blk.fit.games_played();
    blk.snapshot.assign(blk.fit.block().size(), 0.0);
    blocks_.push_back(std::move(blk));
  }

  /// Publish one checkpoint blob per owned block, labelled with the
  /// generation the captured values are valid for (gen + 1 at the end of
  /// gen). `torn` injects a truncated write (FaultPlan torn_checkpoints).
  void checkpoint_to(CheckpointStore& store, int rank, std::uint64_t next_gen,
                     std::uint64_t table_hash, std::uint64_t fingerprint,
                     bool torn) const {
    obs::ScopedTimer t(ins_.ckpt);
    obs::TraceSpan span("phase.ft_checkpoint", obs::kCatFt);
    for (const Block& b : blocks_) {
      BlockCheckpoint c;
      c.config_fingerprint = fingerprint;
      c.generation = next_gen;
      c.table_hash = table_hash;
      c.begin = b.fit.row_begin();
      c.end = b.fit.row_end();
      const auto matrix = b.fit.payoff_matrix();
      c.matrix_cols = matrix.empty() ? 0 : config_.ssets;
      c.fitness.assign(b.fit.block().begin(), b.fit.block().end());
      c.matrix.assign(matrix.begin(), matrix.end());
      auto blob = c.encode();
      FtInstruments::inc(ins_.ckpt_writes);
      FtInstruments::inc(ins_.ckpt_bytes, blob.size());
      if (torn) FtInstruments::inc(ins_.ckpt_torn);
      store.put(rank, c.begin, c.end, next_gen, std::move(blob), torn);
    }
  }

  /// Move the growth of the pairs counters since the last accounting into
  /// engine.pairs_evaluated (per-generation work: begin_generation and
  /// strategy_changed deltas, both of which a fault-free run also pays).
  void account_engine_pairs() {
    for (Block& b : blocks_) {
      const std::uint64_t now = b.fit.pairs_evaluated();
      ins_.pairs->inc(now - b.accounted);
      b.accounted = now;
      const std::uint64_t games_now = b.fit.games_played();
      ins_.games->inc(games_now - b.games_accounted);
      b.games_accounted = games_now;
    }
  }

 private:
  struct Block {
    core::BlockFitness fit;
    std::vector<double> snapshot;  // top-of-generation values
    std::uint64_t accounted = 0;   // pairs already flushed to a counter
    std::uint64_t games_accounted = 0;  // games already flushed to a counter
  };

  /// CRC-verified checkpoint lookup; a corrupt entry skipped on the way to
  /// an older intact one counts to ft.checkpoint.fallbacks.
  std::optional<BlockCheckpoint> lookup(const CheckpointStore& store,
                                        pop::SSetId begin, pop::SSetId end,
                                        std::uint64_t gen,
                                        const pop::Population& pop) {
    if (!cached_mode()) return std::nullopt;
    return store.find_covering(begin, end, gen, pop.table_hash(),
                               [this](const std::string&) {
                                 FtInstruments::inc(ins_.ckpt_fallback);
                                 obs::trace_instant("ft.checkpoint_fallback",
                                                    obs::kCatFt);
                               });
  }

  core::SimConfig config_;
  std::shared_ptr<const pop::InteractionGraph> graph_;
  FtInstruments& ins_;
  std::vector<Block> blocks_;
  // Strategy changes applied in the current generation, in order —
  // replayed onto blocks adopted mid-generation.
  std::vector<pop::SSetId> changed_this_gen_;
};

// -- message codecs -----------------------------------------------------------

constexpr const char* kWhat = "ft protocol message";

// The decision(s) of one generation, as carried by DECIDE messages, by the
// next PLAN's heal fields and by a TAKEOVER's heal fields.
struct Decision {
  std::uint64_t gen = 0;
  bool adopted = false;
  bool has_moran = false;
  pop::MoranPick pick;
};

void put_decision_body(Writer& w, const Decision& d) {
  w.u8(d.adopted ? 1 : 0);
  w.u8(d.has_moran ? 1 : 0);
  w.u32(d.pick.reproducer);
  w.u32(d.pick.dying);
}

Decision get_decision_body(Reader& r, std::uint64_t gen) {
  Decision d;
  d.gen = gen;
  d.adopted = r.u8("adopted") != 0;
  d.has_moran = r.u8("has moran") != 0;
  d.pick.reproducer = r.u32("moran reproducer");
  d.pick.dying = r.u32("moran dying");
  return d;
}

std::vector<std::byte> encode_plan_msg(std::uint64_t gen,
                                       const std::optional<Decision>& prev,
                                       const std::vector<std::byte>& plan) {
  Writer w;
  w.u64(gen);
  w.u8(prev ? 1 : 0);
  if (prev) {
    w.u64(prev->gen);
    put_decision_body(w, *prev);
  }
  w.bytes(plan);
  return w.take();
}

std::vector<std::byte> encode_u64(std::uint64_t v) {
  Writer w;
  w.u64(v);
  return w.take();
}

std::uint64_t decode_u64(const par::Message& m, const char* field) {
  Reader r(m.payload, kWhat);
  const std::uint64_t v = r.u64(field);
  r.expect_exhausted();
  return v;
}

// PC-stage decide (adoption only) vs final-stage decide (moran + done).
enum class DecideStage : std::uint8_t { Pc = 0, Final = 1 };

std::vector<std::byte> encode_decide(DecideStage stage, const Decision& d) {
  Writer w;
  w.u64(d.gen);
  w.u8(static_cast<std::uint8_t>(stage));
  put_decision_body(w, d);
  return w.take();
}

// -- shared run state ---------------------------------------------------------

using Clock = std::chrono::steady_clock;

std::chrono::nanoseconds ms_to_ns(double ms) {
  return std::chrono::nanoseconds(static_cast<std::int64_t>(ms * 1e6));
}

struct Shared {
  const core::SimConfig& config;
  const FtRunOptions& options;
  CheckpointStore store;
  std::uint64_t fingerprint;
  std::chrono::nanoseconds detect;
  std::chrono::nanoseconds ping;
  std::chrono::nanoseconds silence;  // base master-silence (log holders)
  std::chrono::nanoseconds window;   // election vote-collection window
  std::atomic<int> ranks_lost{0};
  std::atomic<int> failovers{0};
  // The finishing master's population, guarded against a deposed twin
  // (split brain): the highest view wins the slot.
  std::mutex result_mu;
  std::optional<pop::Population> result;
  std::uint64_t result_view = 0;

  Shared(const core::SimConfig& c, const FtRunOptions& o)
      : config(c),
        options(o),
        store(o.checkpoint_keep),
        fingerprint(core::config_fingerprint(c)),
        detect(ms_to_ns(o.detect_timeout_ms)),
        ping(ms_to_ns(o.ping_timeout_ms)) {
    const double per_death =
        o.detect_timeout_ms + o.max_pings * o.ping_timeout_ms;
    silence = ms_to_ns(o.master_silence_ms > 0 ? o.master_silence_ms
                                               : 4.0 * per_death);
    window = ms_to_ns(o.election_window_ms > 0 ? o.election_window_ms
                                               : o.detect_timeout_ms);
  }
};

// Applies one generation's scheduled updates in the fault-free order:
// PC adoption, Moran replacement, mutation. `apply_pc` / `apply_final`
// split the two decision stages (the Moran gather must see post-adoption
// fitness, exactly as in the base engines).
void apply_pc_stage(BlockSet& blocks, pop::Population& pop,
                    const pop::GenerationPlan& plan, const Decision& d,
                    std::uint64_t gen, FtInstruments& ins) {
  if (plan.pc && d.adopted) {
    FtInstruments::inc(ins.adoptions);
    obs::ScopedTimer t(ins.apply);
    obs::TraceSpan span(obs::phase::kApplyUpdate, obs::kCatPhase);
    pop.set_strategy(plan.pc->learner, pop.strategy(plan.pc->teacher));
    blocks.strategy_changed(plan.pc->learner, pop, gen);
  }
}

void apply_final_stage(BlockSet& blocks, pop::Population& pop,
                       const pop::GenerationPlan& plan, const Decision& d,
                       std::uint64_t gen, FtInstruments& ins) {
  if (plan.moran && d.pick.is_change()) {
    obs::ScopedTimer t(ins.apply);
    obs::TraceSpan span(obs::phase::kApplyUpdate, obs::kCatPhase);
    pop.set_strategy(d.pick.dying, pop.strategy(d.pick.reproducer));
    blocks.strategy_changed(d.pick.dying, pop, gen);
  }
  if (plan.mutation) {
    FtInstruments::inc(ins.mutations);
    obs::ScopedTimer t(ins.apply);
    obs::TraceSpan span(obs::phase::kApplyUpdate, obs::kCatPhase);
    pop.set_strategy(plan.mutation->target, plan.mutation->strategy);
    blocks.strategy_changed(plan.mutation->target, pop, gen);
  }
}

// ---------------------------------------------------------------------------
// One rank's whole life, worker and master alike. Every rank starts as a
// worker except rank 0, which starts as the master; a worker that wins an
// election *becomes* the master mid-run and runs the same master loop rank
// 0 would have. The class exists because failover needs worker state (the
// replicated log, the pending plan, the ownership view) to carry over into
// the master role bit-for-bit.
// ---------------------------------------------------------------------------

class RankProgram {
 public:
  RankProgram(par::Comm& comm, Shared& shared, obs::MetricsRegistry& registry)
      : comm_(comm),
        shared_(shared),
        registry_(registry),
        ins_(registry, /*is_master=*/comm.rank() == 0),
        config_(shared.config),
        rank_(comm.rank()),
        pop_(core::make_initial_population(config_)),
        pop_gen_start_(pop_),
        graph_(core::make_shared_graph(config_)),
        table_(OwnershipTable::initial(config_.ssets, comm.size())),
        blocks_(config_, graph_, ins_),
        kill_gen_(shared.options.plan.kill_generation(rank_)) {
    for (const auto& [b, e] : table_.ranges_of(rank_)) {
      blocks_.add_initial(b, e, pop_);
    }
  }

  void run() {
    if (rank_ == 0) {
      auto nc = config_.nature_config();
      nc.graph = graph_;
      nature_.emplace(nc);
      for (int w = 1; w < comm_.size(); ++w) alive_.push_back(w);
      run_master(0);
    } else {
      worker_loop();
    }
  }

 private:
  // What a handled message means for the caller's control flow.
  enum class Ev {
    Handled,     // routine message processed
    FromMaster,  // routine message, and it came from the live master
    TookOver,    // accepted a TAKEOVER — master_ changed
    Evicted,     // now passive
    Exit,        // released (BYE) or injected kill: the thread is done
  };

  struct Pending {
    std::uint64_t gen;
    pop::GenerationPlan plan;
    bool pc_applied = false;
  };

  struct Vote {
    std::uint64_t next_gen = 0;  // the voter's log head (+1) — 0 = no log
    std::uint64_t applied = 0;   // first generation not fully applied
  };

  // Alive-but-unresponsive cap: await_from() gives up after this many
  // probe-confirmed resends and declares the rank dead anyway (it is then
  // evicted and its work recovered — correctness is kept, the rank's
  // remaining usefulness is not). Guards every master wait against
  // spinning forever on a rank that answers pings but nothing else, e.g. a
  // zombie that went passive after a false eviction by a previous master.
  static constexpr int kMaxResends = 25;

  bool is_alive(int r) const {
    return std::find(alive_.begin(), alive_.end(), r) != alive_.end();
  }

  std::chrono::nanoseconds my_silence() const {
    // Standbys (ranks holding a log copy) time out first: they can resume
    // the run; ranks without a log can only win an election nobody better
    // contests.
    return log_.empty() ? 2 * shared_.silence : shared_.silence;
  }

  std::uint64_t my_applied_count() const {
    return pending_ ? pending_->gen
                    : static_cast<std::uint64_t>(last_gen_ + 1);
  }

  [[noreturn]] static void throw_abort() {
    throw std::runtime_error(
        "ft failover: aborted — a survivor's applied state is ahead of every "
        "remaining decision log, the run cannot continue deterministically "
        "(raise standby_replicas to cover cascading master failures)");
  }

  // -- generation bookkeeping shared by worker and master -------------------

  void finish_generation(std::uint64_t gen) {
    blocks_.account_engine_pairs();
    const std::uint64_t every = shared_.options.checkpoint_every;
    if (every > 0 && (gen + 1) % every == 0) {
      const bool torn =
          shared_.options.plan.torn_checkpoint_at(rank_, gen + 1);
      blocks_.checkpoint_to(shared_.store, rank_, gen + 1, pop_.table_hash(),
                            shared_.fingerprint, torn);
    }
  }

  /// If a decision for the pending generation is available, apply it and
  /// close the generation. Carried by the next PLAN, by a TAKEOVER, or by
  /// the newest log record at promotion.
  void heal_pending(const std::optional<Decision>& prev) {
    if (!pending_ || !prev || prev->gen != pending_->gen) return;
    FtInstruments::inc(ins_.heals);
    obs::trace_instant("ft.heal", obs::kCatFt, "gen", pending_->gen);
    if (!pending_->pc_applied) {
      apply_pc_stage(blocks_, pop_, pending_->plan, *prev, pending_->gen,
                     ins_);
    }
    apply_final_stage(blocks_, pop_, pending_->plan, *prev, pending_->gen,
                      ins_);
    const std::uint64_t gen = pending_->gen;
    pending_.reset();
    finish_generation(gen);
  }

  /// Fold in any range the current table assigns to this rank but no local
  /// block covers. `mid_gen` = generation `gen` is in flight (its plan was
  /// processed): the block must be rebuilt inside the generation. At a
  /// boundary the next begin_generation does that part.
  void adopt_missing_ranges(std::uint64_t gen, bool mid_gen) {
    for (const auto& [b, e] : table_.ranges_of(rank_)) {
      if (blocks_.owns_range(b, e)) continue;
      if (mid_gen) {
        blocks_.adopt(b, e, pop_, pop_gen_start_, gen, shared_.store,
                      shared_.fingerprint);
      } else {
        blocks_.adopt_at_boundary(b, e, pop_, gen, shared_.store,
                                  shared_.fingerprint);
      }
    }
  }

  // -- worker side ----------------------------------------------------------

  void worker_loop() {
    last_master_msg_ = Clock::now();
    for (;;) {
      if (passive_) {
        const par::Message m = comm_.recv(par::kAnySource, par::kAnyTag);
        if (m.tag == tag::kBye) return;
        if (m.tag == tag::kAbort) throw_abort();
        if (m.tag == tag::kPing) {
          comm_.send(m.source, tag::kPong,
                     encode_u64(decode_u64(m, "ping seq")));
        }
        continue;  // everything else: we are out of the run
      }
      const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
          (last_master_msg_ + my_silence()) - Clock::now());
      std::optional<par::Message> m;
      if (left > std::chrono::nanoseconds::zero()) {
        m = comm_.recv_for(par::kAnySource, par::kAnyTag, left);
      }
      if (!m) {
        // Master silence expired: elect a replacement.
        if (run_election()) return;
        continue;
      }
      if (handle_message(*m) == Ev::Exit) return;
    }
  }

  Ev handle_message(const par::Message& m) {
    const bool from_master = m.source == master_;
    switch (m.tag) {
      case tag::kPlan: {
        Reader r(m.payload, kWhat);
        const std::uint64_t gen = r.u64("generation");
        std::optional<Decision> prev;
        if (r.u8("has prev decision") != 0) {
          const std::uint64_t pgen = r.u64("prev generation");
          prev = get_decision_body(r, pgen);
        }
        const auto plan_wire = r.bytes("plan payload");
        r.expect_exhausted();
        if (kill_gen_ && *kill_gen_ == gen) {
          // The injected crash: stop participating, silently. The plan for
          // this generation dies with us and must be recovered.
          FtInstruments::inc(ins_.kills);
          obs::trace_instant("ft.kill", obs::kCatFt, "gen", gen);
          return Ev::Exit;
        }
        if (static_cast<std::int64_t>(gen) <= last_gen_) {
          // A resend after a dropped ack (or the lagging twin of a split
          // brain): re-acknowledge, don't redo.
          comm_.send(m.source, tag::kPlanAck, encode_u64(gen));
          break;
        }
        // Heal: if the previous generation's decision never arrived, the
        // plan carries it (FIFO order from the master makes this safe).
        heal_pending(prev);
        EGT_ASSERT(!pending_);
        blocks_.begin_generation(pop_, gen);
        pop_gen_start_ = pop_;
        pop::GenerationPlan plan = core::decode_generation_plan(plan_wire);
        if (plan.pc || plan.moran) {
          pending_ = Pending{gen, std::move(plan), false};
        } else {
          apply_final_stage(blocks_, pop_, plan, Decision{}, gen, ins_);
          finish_generation(gen);
        }
        last_gen_ = static_cast<std::int64_t>(gen);
        comm_.send(m.source, tag::kPlanAck, encode_u64(gen));
        break;
      }
      case tag::kDecide: {
        Reader r(m.payload, kWhat);
        const std::uint64_t gen = r.u64("generation");
        const auto stage = static_cast<DecideStage>(r.u8("stage"));
        const Decision d = get_decision_body(r, gen);
        r.expect_exhausted();
        if (!pending_ || pending_->gen != gen) break;  // stale duplicate
        if (stage == DecideStage::Pc) {
          if (!pending_->pc_applied) {
            apply_pc_stage(blocks_, pop_, pending_->plan, d, gen, ins_);
            pending_->pc_applied = true;
          }
          if (!pending_->plan.moran) {
            apply_final_stage(blocks_, pop_, pending_->plan, d, gen, ins_);
            pending_.reset();
            finish_generation(gen);
          }
        } else {
          if (!pending_->pc_applied) {
            apply_pc_stage(blocks_, pop_, pending_->plan, d, gen, ins_);
          }
          apply_final_stage(blocks_, pop_, pending_->plan, d, gen, ins_);
          pending_.reset();
          finish_generation(gen);
        }
        break;
      }
      case tag::kReqFit: {
        Reader r(m.payload, kWhat);
        const std::uint64_t req = r.u64("request id");
        const pop::SSetId k = r.u32("sset");
        r.expect_exhausted();
        EGT_REQUIRE_MSG(blocks_.owns(k),
                        "ft protocol: fitness request for unowned SSet");
        Writer w;
        w.u64(req);
        w.f64(blocks_.fitness(k));
        comm_.send(m.source, tag::kFit, w.take());
        break;
      }
      case tag::kReqBlocks: {
        Reader r(m.payload, kWhat);
        const std::uint64_t req = r.u64("request id");
        const std::uint64_t gen = r.u64("generation");
        const bool adopted = r.u8("adopted") != 0;
        r.expect_exhausted();
        // The gather must see post-adoption fitness (fault-free ordering
        // guarantees it via FIFO; a dropped PC decide would break it), so
        // the request carries the PC decision and heals a missed one.
        if (pending_ && pending_->gen == gen && !pending_->pc_applied &&
            pending_->plan.pc) {
          Decision d;
          d.gen = gen;
          d.adopted = adopted;
          FtInstruments::inc(ins_.heals);
          obs::trace_instant("ft.heal", obs::kCatFt, "gen", gen);
          apply_pc_stage(blocks_, pop_, pending_->plan, d, gen, ins_);
          pending_->pc_applied = true;
        }
        Writer w;
        w.u64(req);
        blocks_.encode_ranges(w, /*snapshot=*/false);
        comm_.send(m.source, tag::kBlocks, w.take());
        break;
      }
      case tag::kPing: {
        comm_.send(m.source, tag::kPong,
                   encode_u64(decode_u64(m, "ping seq")));
        break;
      }
      case tag::kReconfig: {
        Reader r(m.payload, kWhat);
        const std::uint64_t gen = r.u64("generation");
        const std::uint32_t epoch = r.u32("epoch");
        OwnershipTable next = OwnershipTable::decode(r);
        r.expect_exhausted();
        if (epoch > epoch_) {
          table_ = std::move(next);
          epoch_ = epoch;
          adopt_missing_ranges(gen,
                               last_gen_ == static_cast<std::int64_t>(gen));
        }
        // Ack with the newest applied epoch (acks are cumulative).
        Writer w;
        w.u32(epoch_);
        comm_.send(m.source, tag::kReconfigAck, w.take());
        break;
      }
      case tag::kStop: {
        // Reply with the final snapshot but keep serving (the reply may be
        // dropped and re-requested); kBye releases the thread.
        const std::uint64_t req = decode_u64(m, "request id");
        Writer w;
        w.u64(req);
        blocks_.encode_ranges(w, /*snapshot=*/true);
        comm_.send(m.source, tag::kFinal, w.take());
        break;
      }
      case tag::kLogAppend: {
        // The write-ahead record of the generation in flight. Records from
        // the past (a deposed master still streaming) are acknowledged but
        // not kept — the log stays in generation order.
        DecisionLogRecord rec = DecisionLogRecord::decode_blob(m.payload);
        const std::uint64_t gen = rec.generation;
        if (log_.empty() || gen >= log_.newest()->generation) {
          log_.append(std::move(rec));
          FtInstruments::inc(ins_.log_appends);
        }
        comm_.send(m.source, tag::kLogAck, encode_u64(gen));
        break;
      }
      case tag::kElect: {
        // A peer lost the master. Record its vote and answer with ours —
        // fire-and-forget; only ranks whose own silence expired run the
        // full election state machine (run_election).
        note_vote(m);
        break;
      }
      case tag::kTakeover:
        return handle_takeover(m);
      case tag::kTakeoverAck:
        break;  // stale ack from a view this rank lost
      case tag::kEvicted:
        // A master (current or deposed) declared this rank dead. Go
        // passive: keep answering pings and wait for release, but never
        // contest an election with state the run has moved past.
        passive_ = true;
        return Ev::Evicted;
      case tag::kAbort:
        throw_abort();
      case tag::kBye:
        return Ev::Exit;
      default:
        EGT_REQUIRE_MSG(false, "ft protocol: unexpected message tag");
    }
    if (from_master) {
      last_master_msg_ = Clock::now();
      return Ev::FromMaster;
    }
    return Ev::Handled;
  }

  Ev handle_takeover(const par::Message& m) {
    Reader r(m.payload, kWhat);
    const std::uint64_t view = r.u64("view");
    const std::uint64_t resume = r.u64("resume generation");
    std::optional<Decision> prev;
    if (r.u8("has prev decision") != 0) {
      const std::uint64_t pgen = r.u64("prev generation");
      prev = get_decision_body(r, pgen);
    }
    const std::uint32_t epoch = r.u32("epoch");
    OwnershipTable next = OwnershipTable::decode(r);
    r.expect_exhausted();
    if (view < view_ || (view == view_ && m.source != master_)) {
      return Ev::Handled;  // an older view lost the race
    }
    if (view == view_ && m.source == master_) {
      send_takeover_ack(m.source, view);  // resend after a dropped ack
      last_master_msg_ = Clock::now();
      return Ev::FromMaster;
    }
    // A master from the past (stalled through a whole election while this
    // rank moved on): refuse — accepting would rewind applied state.
    if (resume < my_applied_count()) return Ev::Handled;
    view_ = view;
    voted_view_ = std::max(voted_view_, view);
    master_ = m.source;
    last_master_msg_ = Clock::now();
    obs::trace_instant("ft.takeover", obs::kCatFt, "view", view);
    // Heal the generation still pending from the old master, if the new
    // one resumes past it.
    if (pending_ && pending_->gen + 1 == resume) heal_pending(prev);
    EGT_ASSERT(!pending_ || pending_->gen == resume);
    if (epoch > epoch_) {
      table_ = std::move(next);
      epoch_ = epoch;
      adopt_missing_ranges(resume,
                           last_gen_ == static_cast<std::int64_t>(resume));
    }
    send_takeover_ack(m.source, view);
    return Ev::TookOver;
  }

  void send_takeover_ack(int dest, std::uint64_t view) {
    Writer w;
    w.u64(view);
    w.u32(epoch_);
    comm_.send(dest, tag::kTakeoverAck, w.take());
  }

  // -- election -------------------------------------------------------------

  void cast_vote(std::uint64_t view) {
    voted_view_ = view;
    const Vote mine{log_.next_generation(), my_applied_count()};
    votes_[view][rank_] = mine;
    Writer w;
    w.u64(view);
    w.u64(mine.next_gen);
    w.u64(mine.applied);
    const auto wire = w.take();
    for (int r = 0; r < comm_.size(); ++r) {
      if (r != rank_) comm_.send(r, tag::kElect, wire);
    }
  }

  std::uint64_t note_vote(const par::Message& m) {
    Reader r(m.payload, kWhat);
    const std::uint64_t view = r.u64("view");
    Vote v;
    v.next_gen = r.u64("log head");
    v.applied = r.u64("applied count");
    r.expect_exhausted();
    votes_[view][m.source] = v;
    if (view > voted_view_) cast_vote(view);
    return view;
  }

  /// The master fell silent. Broadcast-vote until a view resolves: the
  /// rank with the newest decision log (lowest rank on ties) wins and
  /// takes over; everyone else waits for its TAKEOVER. Returns true when
  /// this thread is done (finished the run as the new master, or was
  /// released / killed / aborted mid-election); false resumes the worker
  /// loop (the old master reappeared, a new one took over, or this rank
  /// was evicted).
  bool run_election() {
    obs::ScopedTimer timer(ins_.election);
    obs::TraceSpan span("phase.ft_election", obs::kCatFt);
    std::uint64_t min_view = view_ + 1;
    for (;;) {
      FtInstruments::inc(ins_.elections);
      obs::trace_instant("ft.election", obs::kCatFt, "view",
                         std::max(min_view, voted_view_));
      std::uint64_t view = std::max(min_view, voted_view_);
      if (voted_view_ < view) cast_vote(view);
      // Collect votes; the window extends while they keep arriving and
      // restarts when a higher view joins.
      auto deadline = Clock::now() + shared_.window;
      for (;;) {
        const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline - Clock::now());
        if (left <= std::chrono::nanoseconds::zero()) break;
        auto m = comm_.recv_for(par::kAnySource, par::kAnyTag, left);
        if (!m) break;
        if (m->tag == tag::kElect) {
          const std::uint64_t v = note_vote(*m);
          if (v >= view) {
            view = v;
            deadline = Clock::now() + shared_.window;
          }
          continue;
        }
        switch (handle_message(*m)) {
          case Ev::Exit:
            return true;
          case Ev::TookOver:
          case Ev::Evicted:
          case Ev::FromMaster:
            return false;
          case Ev::Handled:
            continue;
        }
      }
      // Tally: newest log wins, lowest rank breaks ties (the map iterates
      // ranks in ascending order, so strict > keeps the lowest).
      const auto& round = votes_[view];
      int winner = -1;
      std::uint64_t best = 0;
      std::uint64_t max_applied = 0;
      for (const auto& [r, v] : round) {
        max_applied = std::max(max_applied, v.applied);
        if (winner < 0 || v.next_gen > best) {
          winner = r;
          best = v.next_gen;
        }
      }
      if (winner == rank_) {
        if (max_applied > log_.next_generation()) {
          // Even the best log ends before state some survivor already
          // holds: replanning those generations would fork the RNG
          // trajectory. Fail the run loudly instead of diverging silently.
          for (int r = 0; r < comm_.size(); ++r) {
            if (r != rank_) comm_.send(r, tag::kAbort, {});
          }
          throw_abort();
        }
        promote_and_run(view);
        return true;
      }
      // Lost: give the winner one silence to announce itself, then retry
      // one view higher without it.
      const auto tdeadline = Clock::now() + my_silence();
      for (;;) {
        const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
            tdeadline - Clock::now());
        if (left <= std::chrono::nanoseconds::zero()) break;
        auto m = comm_.recv_for(par::kAnySource, par::kAnyTag, left);
        if (!m) break;
        if (m->tag == tag::kElect) {
          note_vote(*m);
          continue;
        }
        switch (handle_message(*m)) {
          case Ev::Exit:
            return true;
          case Ev::TookOver:
          case Ev::Evicted:
          case Ev::FromMaster:
            return false;
          case Ev::Handled:
            continue;
        }
      }
      min_view = view + 1;
    }
  }

  // -- promotion ------------------------------------------------------------

  /// This rank won view `view`: restore the Nature Agent from the newest
  /// log record, fold the dead master's world in, announce, and run the
  /// rest of the simulation as the master.
  void promote_and_run(std::uint64_t view) {
    ins_.promote(registry_);
    FtInstruments::inc(ins_.failovers);
    obs::trace_instant("ft.failover", obs::kCatFt, "view", view);
    shared_.failovers.fetch_add(1, std::memory_order_relaxed);
    view_ = view;
    voted_view_ = std::max(voted_view_, view);
    master_ = rank_;

    auto nc = config_.nature_config();
    nc.graph = graph_;
    nature_.emplace(nc);
    std::uint64_t start_gen = 0;
    prev_decision_.reset();
    if (const DecisionLogRecord* rec = log_.newest()) {
      Decision last;
      last.gen = rec->generation;
      last.adopted = rec->adopted;
      last.has_moran = rec->has_moran;
      last.pick = rec->pick;
      if (pending_) {
        // The record *is* the decision this rank never received.
        EGT_ASSERT(pending_->gen == rec->generation);
        heal_pending(last);
      }
      // The record's table hash is the integrity check on our replica: a
      // mismatch means the log and the strategy table disagree and nothing
      // downstream can be trusted.
      EGT_ASSERT(pop_.table_hash() == rec->table_hash);
      nature_->restore_state(rec->nature);
      start_gen = rec->generation + 1;
      prev_decision_ = last;
      if (rec->epoch > epoch_) {
        table_ = rec->table;
        epoch_ = static_cast<std::uint32_t>(rec->epoch);
      }
    }
    // The electorate of the winning view is the new alive set; the dead
    // master and every non-voter are folded in by takeover().
    alive_.clear();
    for (const auto& [r, v] : votes_[view_]) {
      if (r != rank_) alive_.push_back(r);
    }
    std::sort(alive_.begin(), alive_.end());
    takeover(start_gen);
    run_master(start_gen);
  }

  void takeover(std::uint64_t start_gen) {
    current_gen_ = start_gen;
    in_generation_ = false;
    std::vector<int> survivors{rank_};
    survivors.insert(survivors.end(), alive_.begin(), alive_.end());
    std::sort(survivors.begin(), survivors.end());
    for (int r = 0; r < comm_.size(); ++r) {
      if (r == rank_ || is_alive(r)) continue;
      if (table_.ranges_of(r).empty()) continue;
      // Dead as far as this master is concerned: the old master, plus any
      // range owner that missed the election.
      FtInstruments::inc(ins_.failures);
      FtInstruments::inc(ins_.recoveries);
      shared_.ranks_lost.fetch_add(1, std::memory_order_relaxed);
      table_.reassign(r, survivors);
    }
    ++epoch_;
    adopt_missing_ranges(start_gen, /*mid_gen=*/false);

    Writer w;
    w.u64(view_);
    w.u64(start_gen);
    w.u8(prev_decision_ ? 1 : 0);
    if (prev_decision_) {
      w.u64(prev_decision_->gen);
      put_decision_body(w, *prev_decision_);
    }
    w.u32(epoch_);
    table_.encode(w);
    const auto wire = w.take();
    for (int r : alive_) comm_.send(r, tag::kTakeover, wire);
    // Collect every ack before running any death handling: a RECONFIG
    // broadcast mid-takeover would reach ranks that have not switched
    // masters yet and be ignored, reading as a cascade of false deaths.
    std::vector<int> silent;
    for (int r : alive_) {
      const bool ok = await_from(
          r, tag::kTakeoverAck,
          [&](const par::Message& m) {
            Reader rd(m.payload, kWhat);
            const std::uint64_t v = rd.u64("view");
            const std::uint32_t ep = rd.u32("applied epoch");
            rd.expect_exhausted();
            return v == view_ && ep >= epoch_;
          },
          [&] { comm_.send(r, tag::kTakeover, wire); });
      if (!ok) silent.push_back(r);
    }
    for (int r : silent) {
      if (is_alive(r)) handle_death(r);
    }
    // Anything still breathing outside the new view — zombies of a false
    // eviction, voters of a stale round — must not start elections against
    // this master.
    for (int r = 0; r < comm_.size(); ++r) {
      if (r != rank_ && !is_alive(r)) comm_.send(r, tag::kEvicted, {});
    }
  }

  // -- master side ----------------------------------------------------------

  // Probe a suspected rank: true = it answered (false alarm).
  bool probe(int w) {
    for (int attempt = 0; attempt < shared_.options.max_pings; ++attempt) {
      const std::uint64_t seq = ++ping_seq_;
      comm_.send(w, tag::kPing, encode_u64(seq));
      const auto deadline = Clock::now() + shared_.ping;
      for (;;) {
        const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline - Clock::now());
        if (left <= std::chrono::nanoseconds::zero()) break;
        auto reply = comm_.recv_for(w, tag::kPong, left);
        if (!reply) break;
        if (decode_u64(*reply, "pong seq") == seq) return true;
        FtInstruments::inc(ins_.stale);  // a pong from an earlier probe
      }
    }
    return false;
  }

  // Deadline-wait for a reply from `w`. `accept` consumes a matching
  // message (false = stale, keep waiting); on timeout the rank is probed —
  // alive reruns `resend` and keeps waiting (up to kMaxResends), silence
  // returns false (dead).
  template <class Accept, class Resend>
  bool await_from(int w, int tagv, Accept&& accept, Resend&& resend) {
    int resends = 0;
    for (;;) {
      auto m = comm_.recv_for(w, tagv, shared_.detect);
      if (m) {
        if (accept(*m)) return true;
        FtInstruments::inc(ins_.stale);
        continue;
      }
      FtInstruments::inc(ins_.suspects);
      obs::trace_instant("ft.suspect", obs::kCatFt, "rank",
                         static_cast<std::uint64_t>(w));
      if (!probe(w)) return false;
      FtInstruments::inc(ins_.false_alarms);
      if (++resends > kMaxResends) return false;  // alive but unresponsive
      FtInstruments::inc(ins_.resends);
      resend();
    }
  }

  // Declares `w` dead and re-establishes the invariants: ownership table
  // re-partitioned, locally-owed ranges adopted, RECONFIG acknowledged by
  // every survivor. Recursion on a nested death (only reachable through
  // false-positive evictions) is bounded by the rank count.
  void handle_death(int dead) {
    FtInstruments::inc(ins_.failures);
    FtInstruments::inc(ins_.recoveries);
    obs::trace_instant("ft.death", obs::kCatFt, "rank",
                       static_cast<std::uint64_t>(dead));
    shared_.ranks_lost.fetch_add(1, std::memory_order_relaxed);
    alive_.erase(std::remove(alive_.begin(), alive_.end(), dead),
                 alive_.end());
    // If it is actually alive (false positive), it must go passive rather
    // than keep serving a run that has moved on without it.
    comm_.send(dead, tag::kEvicted, {});
    std::vector<int> survivors{rank_};
    survivors.insert(survivors.end(), alive_.begin(), alive_.end());
    std::sort(survivors.begin(), survivors.end());
    table_.reassign(dead, survivors);
    const std::uint32_t target_epoch = ++epoch_;
    adopt_missing_ranges(current_gen_, in_generation_);
    Writer w;
    w.u64(current_gen_);
    w.u32(target_epoch);
    table_.encode(w);
    const auto wire = w.take();
    for (int r : alive_) comm_.send(r, tag::kReconfig, wire);
    const std::vector<int> expected = alive_;
    for (int r : expected) {
      if (!is_alive(r)) continue;  // lost to a nested death
      const bool ok = await_from(
          r, tag::kReconfigAck,
          [&](const par::Message& m) {
            Reader rd(m.payload, kWhat);
            const std::uint32_t acked = rd.u32("acked epoch");
            rd.expect_exhausted();
            return acked >= target_epoch;
          },
          [&] { comm_.send(r, tag::kReconfig, wire); });
      if (!ok) handle_death(r);
    }
  }

  // Current fitness of one SSet, wherever it lives.
  double fitness_of(pop::SSetId k) {
    for (;;) {
      const int owner = table_.owner_of(k);
      if (owner == rank_) return blocks_.fitness(k);
      const std::uint64_t req = ++req_seq_;
      Writer w;
      w.u64(req);
      w.u32(k);
      const auto wire = w.take();
      comm_.send(owner, tag::kReqFit, wire);
      double value = 0.0;
      const bool ok = await_from(
          owner, tag::kFit,
          [&](const par::Message& m) {
            Reader r(m.payload, kWhat);
            const std::uint64_t id = r.u64("request id");
            const double v = r.f64("fitness");
            r.expect_exhausted();
            if (id != req) return false;
            value = v;
            return true;
          },
          [&] { comm_.send(owner, tag::kReqFit, wire); });
      if (ok) return value;
      handle_death(owner);  // retry against the new owner
    }
  }

  // The whole population's current fitness (the Moran gather). The request
  // restates this generation's PC decision so a worker whose DECIDE was
  // dropped can heal before replying — the gather must see post-adoption
  // fitness to match the fault-free trajectory.
  std::vector<double> collect_full(std::uint64_t gen, bool adopted) {
    for (;;) {
      std::vector<double> full(config_.ssets, 0.0);
      blocks_.fill_current(full);
      const std::uint64_t req = ++req_seq_;
      Writer rw;
      rw.u64(req);
      rw.u64(gen);
      rw.u8(adopted ? 1 : 0);
      const auto wire = rw.take();
      for (int w : alive_) comm_.send(w, tag::kReqBlocks, wire);
      bool lost = false;
      const std::vector<int> expected = alive_;
      for (int w : expected) {
        if (!is_alive(w)) continue;
        const bool ok = await_from(
            w, tag::kBlocks,
            [&](const par::Message& m) {
              Reader r(m.payload, kWhat);
              if (r.u64("request id") != req) return false;
              const std::uint32_t n = r.u32("range count");
              for (std::uint32_t i = 0; i < n; ++i) {
                const pop::SSetId b = r.u32("range begin");
                const pop::SSetId e = r.u32("range end");
                if (e < b || e > config_.ssets) r.fail("range out of bounds");
                const auto vals = r.doubles(e - b, "range fitness");
                std::copy(vals.begin(), vals.end(), full.begin() + b);
              }
              r.expect_exhausted();
              return true;
            },
            [&] { comm_.send(w, tag::kReqBlocks, wire); });
        if (!ok) {
          handle_death(w);
          lost = true;
          break;
        }
      }
      // A death mid-gather invalidates the round (the new owner's values
      // were not requested) — rerun it with a fresh request id; late
      // replies to the old id are discarded as stale.
      if (!lost) return full;
    }
  }

  /// Write-ahead replication: the record of `gen` (with the decision
  /// already applied locally) reaches every standby — the first
  /// standby_replicas live ranks — before the caller may broadcast the
  /// generation's final decision. A standby dying mid-stream is recovered
  /// and the refreshed record (new ownership view) is re-streamed; append
  /// is idempotent per generation on the survivors.
  void replicate(std::uint64_t gen, const Decision& d) {
    FtInstruments::inc(ins_.log_records);
    for (;;) {
      DecisionLogRecord rec;
      rec.view = view_;
      rec.generation = gen;
      rec.nature = nature_->save_state();
      rec.adopted = d.adopted;
      rec.has_moran = d.has_moran;
      rec.pick = d.pick;
      rec.epoch = epoch_;
      rec.table = table_;
      rec.alive.push_back(rank_);
      rec.alive.insert(rec.alive.end(), alive_.begin(), alive_.end());
      std::sort(rec.alive.begin(), rec.alive.end());
      rec.table_hash = pop_.table_hash();
      log_.append(rec);  // the master's own copy survives its own demotion
      const int nstandby = static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(
              std::max(shared_.options.standby_replicas, 0)),
          alive_.size()));
      if (nstandby == 0) return;
      const auto blob = rec.encode_blob();
      bool lost = false;
      for (int i = 0; i < nstandby; ++i) {
        const int s = alive_[static_cast<std::size_t>(i)];
        comm_.send(s, tag::kLogAppend, blob);
        FtInstruments::inc(ins_.log_bytes, blob.size());
        const bool ok = await_from(
            s, tag::kLogAck,
            [&](const par::Message& m) {
              return decode_u64(m, "acked record generation") == gen;
            },
            [&] { comm_.send(s, tag::kLogAppend, blob); });
        if (!ok) {
          handle_death(s);
          lost = true;
          break;
        }
      }
      if (!lost) return;
    }
  }

  void run_master(std::uint64_t start_gen) {
    for (std::uint64_t gen = start_gen; gen < config_.generations; ++gen) {
      if (kill_gen_ && *kill_gen_ == gen) {
        // The injected crash, at the generation boundary: the previous
        // generation is fully replicated, this one was never planned — the
        // successor's restored RNG replans it identically.
        FtInstruments::inc(ins_.kills);
        obs::trace_instant("ft.kill", obs::kCatFt, "gen", gen);
        return;
      }
      obs::TraceSpan gen_span(obs::kGenerationSpan, obs::kCatEngine, "gen",
                              gen);
      current_gen_ = gen;
      blocks_.begin_generation(pop_, gen);
      pop_gen_start_ = pop_;
      in_generation_ = true;

      pop::GenerationPlan plan;
      {
        obs::ScopedTimer t(ins_.plan);
        obs::TraceSpan span(obs::phase::kPlanBcast, obs::kCatPhase);
        plan = nature_->plan_generation(&pop_);
        const auto wire = encode_plan_msg(gen, prev_decision_,
                                          core::encode_generation_plan(plan));
        for (int w : alive_) comm_.send(w, tag::kPlan, wire);
        // Collect acks — the per-generation heartbeat. A killed rank is
        // detected here, before any of this generation's decisions.
        const std::vector<int> expected = alive_;
        for (int w : expected) {
          if (!is_alive(w)) continue;
          const bool ok = await_from(
              w, tag::kPlanAck,
              [&](const par::Message& m) {
                return decode_u64(m, "acked generation") == gen;
              },
              [&] {
                comm_.send(w, tag::kPlan,
                           encode_plan_msg(gen, prev_decision_,
                                           core::encode_generation_plan(plan)));
              });
          if (!ok) handle_death(w);
        }
      }
      prev_decision_.reset();

      Decision decision;
      decision.gen = gen;
      if (plan.pc) {
        FtInstruments::inc(ins_.pc_events);
        double tf = 0.0, lf = 0.0;
        {
          obs::ScopedTimer t(ins_.fitness_return);
          obs::TraceSpan span(obs::phase::kFitnessReturn, obs::kCatPhase);
          tf = fitness_of(plan.pc->teacher);
          lf = fitness_of(plan.pc->learner);
        }
        obs::ScopedTimer t(ins_.decision);
        obs::TraceSpan span(obs::phase::kDecisionBcast, obs::kCatPhase);
        decision.adopted = nature_->decide_adoption(tf, lf);
        if (plan.moran) {
          // The Moran gather needs post-adoption fitness on every rank, so
          // this intermediate decision cannot wait for the generation's
          // write-ahead record; the final (committing) one below does.
          const auto wire = encode_decide(DecideStage::Pc, decision);
          for (int w : alive_) comm_.send(w, tag::kDecide, wire);
          apply_pc_stage(blocks_, pop_, plan, decision, gen, ins_);
        }
      }
      if (plan.moran) {
        FtInstruments::inc(ins_.moran_events);
        decision.has_moran = true;
        std::vector<double> full;
        {
          obs::ScopedTimer t(ins_.fitness_return);
          obs::TraceSpan span(obs::phase::kFitnessReturn, obs::kCatPhase);
          full = collect_full(gen, decision.adopted);
        }
        obs::ScopedTimer t(ins_.decision);
        obs::TraceSpan span(obs::phase::kDecisionBcast, obs::kCatPhase);
        decision.pick = nature_->select_moran(full);
      }
      if (plan.pc && !plan.moran) {
        apply_pc_stage(blocks_, pop_, plan, decision, gen, ins_);
      }
      apply_final_stage(blocks_, pop_, plan, decision, gen, ins_);

      // Write-ahead: the record of this generation reaches the standbys
      // before any worker can see its final decision.
      replicate(gen, decision);
      if (plan.pc || plan.moran) {
        obs::ScopedTimer t(ins_.decision);
        obs::TraceSpan span(obs::phase::kDecisionBcast, obs::kCatPhase);
        const auto wire = encode_decide(
            plan.moran ? DecideStage::Final : DecideStage::Pc, decision);
        for (int w : alive_) comm_.send(w, tag::kDecide, wire);
        prev_decision_ = decision;
      }
      finish_generation(gen);
      FtInstruments::inc(ins_.generations);

      if (shared_.options.metrics_stream != nullptr &&
          shared_.options.metrics_stream->wants(gen)) {
        // Reuse the Moran-gather protocol op to assemble the full fitness
        // vector for the streamed global mean (workers answer kReqBlocks at
        // any point of their loop). Deaths mid-gather are handled as usual.
        const std::vector<double> full = collect_full(gen, decision.adopted);
        double sum = 0.0;
        for (const double f : full) sum += f;
        shared_.options.metrics_stream->on_generation(
            gen, pop_, registry_, sum / static_cast<double>(config_.ssets));
      }

      if (shared_.options.trace != nullptr) {
        // Same capture point (and decision layout) as the base engines'
        // hooks; `nature` is the post-decision state replicate() logged.
        core::TracePoint point;
        point.generation = gen;
        point.nature = nature_->save_state();
        if (plan.pc) {
          point.pc = true;
          point.teacher = plan.pc->teacher;
          point.learner = plan.pc->learner;
          point.adopted = decision.adopted;
        }
        if (plan.moran) {
          point.moran = true;
          point.reproducer = decision.pick.reproducer;
          point.dying = decision.pick.dying;
          point.adopted = decision.pick.is_change();
        }
        if (plan.mutation) {
          point.mutated = true;
          point.mutation_target = plan.mutation->target;
        }
        point.table_hash = pop_.table_hash();
        shared_.options.trace->on_point(point);
      }
    }

    // Final snapshot gather (top-of-last-generation fitness, matching the
    // base engines). Workers keep serving until the explicit release, so a
    // dropped FINAL reply is simply re-requested.
    current_gen_ = config_.generations > 0 ? config_.generations - 1 : 0;
    for (;;) {
      std::vector<double> final_fit(config_.ssets, 0.0);
      blocks_.fill_snapshot(final_fit);
      const std::uint64_t req = ++req_seq_;
      const auto wire = encode_u64(req);
      for (int w : alive_) comm_.send(w, tag::kStop, wire);
      bool lost = false;
      const std::vector<int> expected = alive_;
      for (int w : expected) {
        if (!is_alive(w)) continue;
        const bool ok = await_from(
            w, tag::kFinal,
            [&](const par::Message& m) {
              Reader r(m.payload, kWhat);
              if (r.u64("request id") != req) return false;
              const std::uint32_t n = r.u32("range count");
              for (std::uint32_t i = 0; i < n; ++i) {
                const pop::SSetId b = r.u32("range begin");
                const pop::SSetId e = r.u32("range end");
                if (e < b || e > config_.ssets) r.fail("range out of bounds");
                const auto vals = r.doubles(e - b, "range fitness");
                std::copy(vals.begin(), vals.end(), final_fit.begin() + b);
              }
              r.expect_exhausted();
              return true;
            },
            [&] { comm_.send(w, tag::kStop, wire); });
        if (!ok) {
          handle_death(w);
          lost = true;
          break;
        }
      }
      if (lost) continue;  // re-gather with the post-recovery ownership
      for (pop::SSetId i = 0; i < config_.ssets; ++i) {
        pop_.set_fitness(i, final_fit[i]);
      }
      break;
    }

    // Release every rank — including declared-dead ones that are actually
    // alive (passive zombies wait for exactly this so run_ranks can join
    // them).
    for (int w = 0; w < comm_.size(); ++w) {
      if (w != rank_) comm_.send(w, tag::kBye, {});
    }
    std::lock_guard<std::mutex> lk(shared_.result_mu);
    if (!shared_.result.has_value() || view_ >= shared_.result_view) {
      shared_.result = std::move(pop_);
      shared_.result_view = view_;
    }
  }

  // -- members --------------------------------------------------------------

  par::Comm& comm_;
  Shared& shared_;
  obs::MetricsRegistry& registry_;
  FtInstruments ins_;
  const core::SimConfig& config_;
  const int rank_;
  pop::Population pop_;
  pop::Population pop_gen_start_;
  std::shared_ptr<const pop::InteractionGraph> graph_;
  OwnershipTable table_;
  BlockSet blocks_;
  const std::optional<std::uint64_t> kill_gen_;

  // Protocol position (every rank).
  std::uint32_t epoch_ = 0;
  std::int64_t last_gen_ = -1;
  std::optional<Pending> pending_;
  DecisionLog log_;
  std::uint64_t view_ = 0;
  std::uint64_t voted_view_ = 0;
  std::map<std::uint64_t, std::map<int, Vote>> votes_;
  int master_ = 0;
  bool passive_ = false;
  Clock::time_point last_master_msg_{};

  // Master-side state (live once this rank is, or becomes, the master).
  std::optional<pop::NatureAgent> nature_;
  std::vector<int> alive_;
  std::uint64_t ping_seq_ = 0;
  std::uint64_t req_seq_ = 0;
  std::uint64_t current_gen_ = 0;
  std::optional<Decision> prev_decision_;
  bool in_generation_ = false;
};

}  // namespace

FtResult run_parallel_ft(const core::SimConfig& config, int nranks) {
  return run_parallel_ft(config, nranks, FtRunOptions{});
}

FtResult run_parallel_ft(const core::SimConfig& config, int nranks,
                         const FtRunOptions& options) {
  config.validate();
  EGT_REQUIRE_MSG(nranks >= 1, "need at least one rank");
  EGT_REQUIRE_MSG(static_cast<pop::SSetId>(nranks) <= config.ssets,
                  "more ranks than SSets is not supported by the block "
                  "partition");
  options.plan.validate(nranks);
  EGT_REQUIRE_MSG(options.detect_timeout_ms > 0 && options.ping_timeout_ms > 0,
                  "detection timeouts must be positive");
  EGT_REQUIRE_MSG(options.max_pings >= 1, "need at least one ping probe");
  EGT_REQUIRE_MSG(options.standby_replicas >= 0,
                  "standby_replicas must be >= 0");
  EGT_REQUIRE_MSG(options.checkpoint_keep >= 1, "checkpoint_keep must be >= 1");
  EGT_REQUIRE_MSG(options.master_silence_ms >= 0 &&
                      options.election_window_ms >= 0,
                  "failover timeouts must be >= 0 (0 = auto)");
  EGT_REQUIRE_MSG(
      !options.plan.kill_generation(0).has_value() ||
          options.standby_replicas >= 1,
      "fault plan kills rank 0 (the Nature Agent) but standby_replicas is 0 "
      "— there is no decision-log replica to fail over to");

  Shared shared(config, options);
  std::deque<obs::MetricsRegistry> rank_registries(
      static_cast<std::size_t>(nranks));
  // The injector reports into rank 0's registry (merged below), so
  // ft.faults.* appear beside ft.recoveries in the manifest.
  par::RunOptions run_options;
  run_options.fault_injector =
      std::make_shared<PlanFaultInjector>(options.plan, &rank_registries[0]);

  const par::TrafficReport traffic = par::run_ranks_traced(
      nranks,
      [&](par::Comm& comm) {
        // Flight-recorder attribution: this thread's events land on
        // pid = rank, wherever the master role currently lives.
        const obs::TraceRankScope trace_rank(comm.rank());
        obs::Tracer::set_thread_name("rank.main");
        RankProgram program(
            comm, shared,
            rank_registries[static_cast<std::size_t>(comm.rank())]);
        program.run();
      },
      run_options);
  EGT_ASSERT(shared.result.has_value());

  obs::MetricsRegistry merged;
  for (const auto& reg : rank_registries) merged.merge(reg);
  merged.gauge("engine.ranks").set(static_cast<double>(nranks));
  merged.gauge("ft.ranks_lost").set(
      static_cast<double>(shared.ranks_lost.load()));
  if (options.metrics != nullptr) options.metrics->merge(merged);

  return FtResult{std::move(*shared.result),   traffic,
                  config.generations,          shared.ranks_lost.load(),
                  shared.failovers.load(),     merged.snapshot()};
}

}  // namespace egt::ft
