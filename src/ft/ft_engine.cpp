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
#include "core/generation.hpp"
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

// The shared engine instruments (phase timers, "engine.*" counters, so
// serial, parallel and ft manifests are directly comparable) plus the
// "ft.*" family. The master-family counters (the
// engine event counters, the failure detector's tallies) exist only on
// ranks that actually are the master: rank 0 from launch, and any standby
// from the moment it wins an election (promote()). Registering them on
// every rank would multiply the merged event counts, because the apply
// stages run on every rank.
struct FtInstruments : core::EngineInstruments {
  // Every rank.
  obs::Histogram* ckpt = nullptr;
  obs::Histogram* recovery = nullptr;
  obs::Histogram* election = nullptr;
  obs::Counter* recovery_pairs = nullptr;  // ft.recovery.pairs_evaluated
  obs::Counter* recovery_games = nullptr;  // ft.recovery.games_played
  obs::Counter* ckpt_writes = nullptr;
  obs::Counter* ckpt_bytes = nullptr;
  obs::Counter* ckpt_fallback = nullptr;
  obs::Counter* ckpt_torn = nullptr;
  obs::Counter* blocks_restored = nullptr;
  obs::Counter* blocks_recomputed = nullptr;
  obs::Counter* heals = nullptr;
  obs::Counter* rows_shipped = nullptr;  // learner rows copied from a FIT's
  obs::Counter* kills = nullptr;
  obs::Counter* log_appends = nullptr;  // standby side: records accepted
  obs::Counter* elections = nullptr;    // election rounds entered
  obs::Counter* failovers = nullptr;    // elections won (takeovers)
  // Masters only (null until promote()).
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

  FtInstruments(obs::MetricsRegistry& reg, bool is_master)
      : EngineInstruments(&reg, /*events=*/false) {
    registry = &reg;
    ckpt = &reg.histogram("phase.ft_checkpoint");
    recovery = &reg.histogram("phase.ft_recovery");
    election = &reg.histogram("phase.ft_election");
    recovery_pairs = &reg.counter("ft.recovery.pairs_evaluated");
    recovery_games = &reg.counter("ft.recovery.games_played");
    ckpt_writes = &reg.counter("ft.checkpoint.writes");
    ckpt_bytes = &reg.counter("ft.checkpoint.bytes");
    ckpt_fallback = &reg.counter("ft.checkpoint.fallbacks");
    ckpt_torn = &reg.counter("ft.faults.checkpoints_torn");
    blocks_restored = &reg.counter("ft.recovery.blocks_restored");
    blocks_recomputed = &reg.counter("ft.recovery.blocks_recomputed");
    heals = &reg.counter("ft.heals");
    rows_shipped = &reg.counter("ft.rows_shipped");
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
    if (failures != nullptr) return;
    count_events(reg);
    failures = &reg.counter("ft.failures_detected");
    recoveries = &reg.counter("ft.recoveries");
    suspects = &reg.counter("ft.suspected_ranks");
    false_alarms = &reg.counter("ft.false_alarms");
    resends = &reg.counter("ft.resends");
    stale = &reg.counter("ft.stale_messages");
    log_records = &reg.counter("ft.log.records");
    log_bytes = &reg.counter("ft.log.bytes");
  }
};

// -- owned fitness blocks -----------------------------------------------------

// An adoption's teacher row on its way to the learner's owner: `values` is
// `teacher`'s payoff row, read before the adoption made `learner` a copy.
struct TeacherRow {
  pop::SSetId teacher;
  pop::SSetId learner;
  std::vector<double> values;
};

// A rank's set of owned fitness blocks. Starts as the single fault-free
// BlockPartition range; grows when ranges are adopted from dead ranks.
// Pairs accounting follows the fault-free ledger: startup initialization
// and per-generation work count to "engine.pairs_evaluated" (so the merged
// total matches a fault-free run under kill-only plans); work that only
// exists because of recovery counts to "ft.recovery.pairs_evaluated".
//
// Strategy changes go through an ordered per-generation change log. A
// worker folds each change at once; the master only logs it and folds when
// something reads its blocks, so its PLAN leaves first (see share_plan).
// Two replicas advance by replaying the log, never by copy: `top_` (the
// top of the generation, which mid-generation adoption rebuilds from) and
// `at_` (as of the last folded change, which every fold reads). An
// adoption whose teacher lives on another rank carries the teacher's row
// (offer_row), so the learner's row is a copy, not a replay.
class BlockSet {
 public:
  BlockSet(const core::SimConfig& config,
           std::shared_ptr<const pop::InteractionGraph> graph,
           FtInstruments& ins, const pop::Population& pop)
      : config_(config), graph_(std::move(graph)), ins_(ins), top_(pop),
        at_(pop) {}

  bool cached_mode() const noexcept {
    return config_.fitness_mode != core::FitnessMode::Sampled;
  }

  /// Fault-free startup block: initialization counts to engine.pairs, as
  /// in the base engines.
  void add_initial(pop::SSetId begin, pop::SSetId end) {
    Block blk{core::BlockFitness(config_, begin, end, graph_, ins_.registry),
               {},
               {}};
    ins_.initialize(blk.fit, at_, blk.seen);
    blk.snapshot.assign(blk.fit.block().size(), 0.0);
    blocks_.push_back(std::move(blk));
  }

  /// Top of generation `gen`: advance `top_` past the last generation's
  /// changes (O(changes)), then play.
  void begin_generation(std::uint64_t gen) {
    fold();
    for (const Change& c : changes_) top_.set_strategy(c.k, c.strategy);
    changes_.clear();
    folded_ = 0;
    offer_.reset();
    for (Block& b : blocks_) {
      b.fit.begin_generation(top_, gen);
      b.snapshot.assign(b.fit.block().begin(), b.fit.block().end());
    }
    account_engine_pairs();
  }

  /// A teacher row read with every change before this generation's
  /// folded in. Only the next logged change can take it, and only when
  /// that change is the learner's and the generation's first.
  void offer_row(TeacherRow row) { offer_ = std::move(row); }

  void log_change(pop::SSetId k, const pop::Population& pop,
                  std::uint64_t gen) {
    Change c{k, pop.strategy(k), gen, 0, {}};
    if (offer_ && offer_->learner == k && changes_.empty()) {
      c.teacher = offer_->teacher;
      c.row = std::move(offer_->values);
    }
    offer_.reset();
    changes_.push_back(std::move(c));
    unchanged_since_ = gen + 1;
  }

  void strategy_changed(pop::SSetId k, const pop::Population& pop,
                        std::uint64_t gen) {
    log_change(k, pop, gen);
    fold_changes();
  }

  /// Fold the deferred changes into every block, timed as apply, and
  /// account their work. Every reader of the blocks calls this first.
  void fold() {
    if (folded_ == changes_.size()) return;
    core::PhaseScope phase(ins_.apply, obs::phase::kApplyUpdate);
    const std::uint64_t games = games_played();
    fold_changes();
    phase.span().set_arg("games", games_played() - games);
    account_engine_pairs();
  }

  std::uint64_t games_played() const noexcept {
    std::uint64_t games = 0;
    for (const Block& b : blocks_) games += b.fit.games_played();
    return games;
  }

  bool owns_range(pop::SSetId begin, pop::SSetId end) const noexcept {
    for (const Block& b : blocks_) {
      if (b.fit.row_begin() == begin && b.fit.row_end() == end) return true;
    }
    return false;
  }

  /// With `row`, also row i as a FIT ships it (empty unless the blocks
  /// reuse rows).
  double fitness(pop::SSetId i, std::vector<double>* row = nullptr) {
    fold();
    for (const Block& b : blocks_) {
      if (i < b.fit.row_begin() || i >= b.fit.row_end()) continue;
      if (row != nullptr) {
        const std::span<const double> r = b.fit.source_row(i);
        row->assign(r.begin(), r.end());
      }
      return b.fit.fitness(i);
    }
    EGT_REQUIRE_MSG(false, "ft protocol: fitness request for unowned SSet");
    return 0.0;
  }

  /// Every owned block into `full` (indexed by SSet): the top-of-generation
  /// `snapshot` or the current values.
  void fill(std::vector<double>& full, bool snapshot) {
    fold();
    for (const Block& b : blocks_) {
      std::ranges::copy(values(b, snapshot), full.begin() + b.fit.row_begin());
    }
  }

  /// The BLOCKS / FINAL reply to request `req`: every owned block as
  /// (begin, end, doubles) using `snapshot` or current values.
  std::vector<std::byte> ranges_msg(std::uint64_t req, bool snapshot) const {
    Writer w;
    w.u64(req);
    w.u32(static_cast<std::uint32_t>(blocks_.size()));
    for (const Block& b : blocks_) {
      w.u32(b.fit.row_begin());
      w.u32(b.fit.row_end());
      const std::span<const double> v = values(b, snapshot);
      w.doubles(v.data(), v.size());
    }
    return w.take();
  }

  /// Adopt range [begin, end) from a dead rank, after folding every
  /// deferred change (so the new block starts from the current replica).
  ///
  /// `mid_gen`: generation `gen` is in flight; `top_` is the replica at
  /// its top (before this generation's updates). Fast path: an
  /// intact covering block checkpoint restores the exact doubles
  /// (bit-exact, zero games). Recompute path: Sampled re-plays the block
  /// with this generation's streams from the top-of-generation population
  /// (bit-exact by purity); cached modes re-initialize from scratch
  /// (recovery work, counts to ft.recovery.pairs_evaluated) and replay
  /// this generation's strategy changes. The play and the replay are the
  /// dead rank's own generation work, so they count to engine.pairs
  /// exactly as its evaluation would have.
  ///
  /// Otherwise `gen` is the next generation to run, and the caller's main
  /// loop will run begin_generation over every block — including this one
  /// — when it starts. So the block only needs the state begin_generation
  /// builds on: a checkpoint restore (cached modes; any intact entry whose
  /// table hash matches is bit-exact) or a from-scratch initialize; Sampled
  /// blocks need nothing at all, the next begin_generation replays them.
  void adopt(pop::SSetId begin, pop::SSetId end, std::uint64_t gen,
             bool mid_gen, const CheckpointStore& store,
             std::uint64_t fingerprint) {
    fold();
    obs::ScopedTimer t(ins_.recovery);
    obs::TraceSpan span("phase.ft_recovery", obs::kCatFt, "begin", begin);
    Block blk{core::BlockFitness(config_, begin, end, graph_, ins_.registry),
               {},
               {}};
    if (restore_from(blk.fit, lookup(store, begin, end, gen), fingerprint)) {
      blk.snapshot.assign(blk.fit.block().begin(), blk.fit.block().end());
      FtInstruments::inc(ins_.blocks_restored);
    } else {
      if (cached_mode()) {
        blk.fit.initialize(mid_gen ? top_ : at_);
        FtInstruments::inc(ins_.recovery_pairs, blk.fit.pairs_evaluated());
        FtInstruments::inc(ins_.recovery_games, blk.fit.games_played());
        blk.seen = tally(blk.fit);
      }
      if (mid_gen) {
        blk.fit.begin_generation(top_, gen);
        // Snapshot = top-of-generation values, before this generation's
        // updates (which are replayed on top for the cached modes below).
        blk.snapshot.assign(blk.fit.block().begin(), blk.fit.block().end());
        // Replay each change against the population as of that change:
        // strategy_changed reads every column but k's as current.
        pop::Population replay = top_;
        for (const Change& c : changes_) {
          replay.set_strategy(c.k, c.strategy);
          blk.fit.strategy_changed(c.k, replay, c.gen);
        }
        // This generation's play and changes on these rows are the work
        // the dead owner would have done (it died before folding any of
        // them): they count to engine.*, like every other rank's.
        ins_.account(blk.fit, blk.seen);
      }
      FtInstruments::inc(ins_.blocks_recomputed);
    }
    if (!mid_gen) blk.snapshot.assign(blk.fit.block().size(), 0.0);
    blk.seen = tally(blk.fit);
    blocks_.push_back(std::move(blk));
  }

  /// Publish one checkpoint blob per owned block, labelled with the
  /// generation the captured values are valid for (gen + 1 at the end of
  /// gen). `torn` injects a truncated write (FaultPlan torn_checkpoints).
  void checkpoint_to(CheckpointStore& store, int rank, std::uint64_t next_gen,
                     std::uint64_t table_hash, std::uint64_t fingerprint,
                     bool torn) {
    fold();
    obs::ScopedTimer t(ins_.ckpt);
    obs::TraceSpan span("phase.ft_checkpoint", obs::kCatFt);
    for (const Block& b : blocks_) {
      auto blob = BlockCheckpoint{fingerprint, next_gen, table_hash,
                                  b.fit.state()}
                      .encode();
      FtInstruments::inc(ins_.ckpt_writes);
      FtInstruments::inc(ins_.ckpt_bytes, blob.size());
      if (torn) FtInstruments::inc(ins_.ckpt_torn);
      store.put(rank, b.fit.row_begin(), b.fit.row_end(), next_gen,
                std::move(blob), torn);
    }
  }

  /// Move the growth of the pairs counters since the last accounting into
  /// engine.pairs_evaluated (per-generation work: begin_generation and
  /// strategy_changed deltas, both of which a fault-free run also pays).
  void account_engine_pairs() {
    for (Block& b : blocks_) ins_.account(b.fit, b.seen);
  }

 private:
  struct Block {
    core::BlockFitness fit;
    std::vector<double> snapshot;  // top-of-generation values
    core::WorkTally seen;          // work already flushed to a counter
  };

  struct Change {
    pop::SSetId k;
    game::Strategy strategy;  // k's strategy from this change on
    std::uint64_t gen;
    pop::SSetId teacher;      // whose row `row` is
    std::vector<double> row;  // the teacher's shipped row, or empty
  };

  /// Each unfolded change against the replica as of that change:
  /// strategy_changed reads every column but k's as current.
  void fold_changes() {
    for (; folded_ < changes_.size(); ++folded_) {
      const Change& c = changes_[folded_];
      at_.set_strategy(c.k, c.strategy);
      const core::BlockFitness::SourceRow row{c.teacher, c.row};
      for (Block& b : blocks_) {
        if (b.fit.strategy_changed(c.k, at_, c.gen,
                                   c.row.empty() ? nullptr : &row)) {
          FtInstruments::inc(ins_.rows_shipped);
        }
      }
    }
  }

  static core::WorkTally tally(const core::BlockFitness& fit) {
    return {fit.pairs_evaluated(), fit.games_played()};
  }

  /// A block's top-of-generation `snapshot` or current values.
  static std::span<const double> values(const Block& b, bool snapshot) {
    return snapshot ? std::span<const double>(b.snapshot) : b.fit.block();
  }

  /// Restore `fit` from the rows it owns of `hit`; false (recompute) when
  /// there is no hit, it was written under another config, or its shape
  /// does not match the block.
  static bool restore_from(core::BlockFitness& fit,
                           const std::optional<BlockCheckpoint>& hit,
                           std::uint64_t fingerprint) {
    if (!hit || hit->config_fingerprint != fingerprint) return false;
    try {
      fit.restore(hit->state.slice(fit.row_begin(), fit.row_end()));
      return true;
    } catch (const core::CheckpointError&) {
      return false;
    }
  }

  /// CRC-verified checkpoint lookup; a corrupt entry skipped on the way to
  /// an older intact one counts to ft.checkpoint.fallbacks.
  std::optional<BlockCheckpoint> lookup(const CheckpointStore& store,
                                        pop::SSetId begin, pop::SSetId end,
                                        std::uint64_t gen) {
    if (!cached_mode()) return std::nullopt;
    return store.find_covering(begin, end, gen, at_.table_hash(),
                               unchanged_since_,
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
  pop::Population top_;  // the population at the top of the generation
  pop::Population at_;   // top_ plus changes_[0, folded_)
  // The current generation's strategy changes, in order; replayed onto
  // blocks adopted mid-generation.
  std::vector<Change> changes_;
  std::size_t folded_ = 0;  // changes_ already folded into the blocks
  std::optional<TeacherRow> offer_;  // offer_row's, until the next change
  // First generation with no strategy change since: only a checkpoint
  // captured at or after it holds the blocks' current state.
  std::uint64_t unchanged_since_ = 0;
};

// -- message codecs -----------------------------------------------------------

constexpr const char* kWhat = "ft protocol message";

// The decision(s) of one generation, as carried by DECIDE messages, by the
// next PLAN's heal fields and by a TAKEOVER's heal fields.
using Decision = core::GenerationDecision;

// The heal fields of PLAN and TAKEOVER: an optional previous decision.
void put_prev(Writer& w, const std::optional<Decision>& prev) {
  w.u8(prev ? 1 : 0);
  if (prev) {
    w.u64(prev->gen);
    core::wire::put_decision(w, *prev);
  }
}

std::optional<Decision> get_prev(Reader& r) {
  if (r.u8("has prev decision") == 0) return std::nullopt;
  const std::uint64_t gen = r.u64("prev generation");
  return core::wire::get_decision(r, gen);
}

std::vector<std::byte> encode_plan_msg(std::uint64_t gen,
                                       const std::optional<Decision>& prev,
                                       const std::vector<std::byte>& plan) {
  Writer w;
  w.u64(gen);
  put_prev(w, prev);
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

// ---------------------------------------------------------------------------
// One rank's whole life, worker and master alike. Every rank starts as a
// worker except rank 0, which starts as the master; a worker that wins an
// election *becomes* the master mid-run and runs the same master loop rank
// 0 would have. The class exists because failover needs worker state (the
// replicated log, the pending plan, the ownership view) to carry over into
// the master role bit-for-bit.
// ---------------------------------------------------------------------------

class RankProgram : private core::GenerationTransport {
 public:
  RankProgram(par::Comm& comm, Shared& shared, obs::MetricsRegistry& registry)
      : comm_(comm),
        shared_(shared),
        registry_(registry),
        ins_(registry, /*is_master=*/comm.rank() == 0),
        config_(shared.config),
        rank_(comm.rank()),
        pop_(core::make_initial_population(config_)),
        graph_(core::make_shared_graph(config_)),
        table_(OwnershipTable::initial(config_.ssets, comm.size())),
        blocks_(config_, graph_, ins_, pop_),
        kill_gen_(shared.options.plan.kill_generation(rank_)) {
    for (const auto& [b, e] : table_.ranges_of(rank_)) {
      blocks_.add_initial(b, e);
    }
  }

  void run() {
    if (rank_ == 0) {
      nature_.emplace(config_.nature_config(graph_));
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

  /// The master plus the ranks it considers alive, ascending.
  std::vector<int> members() const {
    std::vector<int> all{rank_};
    all.insert(all.end(), alive_.begin(), alive_.end());
    std::sort(all.begin(), all.end());
    return all;
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

  /// Apply `d` to the pending generation through the shared step's apply
  /// helpers: the adoption stage once, and with `close` the final stage,
  /// which closes the generation.
  void apply_pending(const Decision& d, bool close) {
    if (!pending_->pc_applied) {
      core::apply_adoption(pop_, blocks_, pending_->plan, d, ins_);
      pending_->pc_applied = true;
    }
    if (!close) return;
    core::apply_final(pop_, blocks_, pending_->plan, d, ins_);
    pending_.reset();
    finish_generation(d.gen);
  }

  /// If a decision for the pending generation is available, apply it and
  /// close the generation. Carried by the next PLAN, by a TAKEOVER, or by
  /// the newest log record at promotion.
  void heal_pending(const std::optional<Decision>& prev) {
    if (!pending_ || !prev || prev->gen != pending_->gen) return;
    FtInstruments::inc(ins_.heals);
    obs::trace_instant("ft.heal", obs::kCatFt, "gen", pending_->gen);
    apply_pending(*prev, /*close=*/true);
  }

  /// A master's newer ownership table (RECONFIG, TAKEOVER) for generation
  /// `gen`, which is in flight when its plan was already processed.
  void adopt_table(OwnershipTable next, std::uint32_t epoch,
                   std::uint64_t gen) {
    if (epoch <= epoch_) return;
    table_ = std::move(next);
    epoch_ = epoch;
    adopt_missing_ranges(gen, last_gen_ == static_cast<std::int64_t>(gen));
  }

  /// Fold in any range the current table assigns to this rank but no local
  /// block covers. `mid_gen` = generation `gen` is in flight (its plan was
  /// processed): the block must be rebuilt inside the generation. At a
  /// boundary the next begin_generation does that part.
  void adopt_missing_ranges(std::uint64_t gen, bool mid_gen) {
    for (const auto& [b, e] : table_.ranges_of(rank_)) {
      if (blocks_.owns_range(b, e)) continue;
      blocks_.adopt(b, e, gen, mid_gen, shared_.store, shared_.fingerprint);
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
        const std::optional<Decision> prev = get_prev(r);
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
        core::play_generation(*this, ins_, gen);
        pending_ = Pending{gen, core::decode_generation_plan(plan_wire), false};
        // Without a PC or Moran event no decision follows: close now.
        if (!pending_->plan.pc && !pending_->plan.moran) {
          apply_pending(Decision{gen, false, false, {}}, /*close=*/true);
        }
        last_gen_ = static_cast<std::int64_t>(gen);
        comm_.send(m.source, tag::kPlanAck, encode_u64(gen));
        break;
      }
      case tag::kDecide: {
        DecideMsg msg = decode_decide(m.payload, config_.ssets);
        const Decision& d = msg.decision;
        if (!pending_ || pending_->gen != d.gen) break;  // stale duplicate
        if (!msg.row.empty() && d.adopted && pending_->plan.pc) {
          blocks_.offer_row({pending_->plan.pc->teacher,
                             pending_->plan.pc->learner, std::move(msg.row)});
        }
        // A PC-stage decide of a Moran generation waits for the gather.
        apply_pending(d, msg.stage == DecideStage::Final ||
                             !pending_->plan.moran);
        break;
      }
      case tag::kReqFit: {
        Reader r(m.payload, kWhat);
        const std::uint64_t req = r.u64("request id");
        const pop::SSetId k = r.u32("sset");
        const bool with_row = r.u8("with row") != 0;
        r.expect_exhausted();
        std::vector<double> row;
        const double f = blocks_.fitness(k, with_row ? &row : nullptr);
        comm_.send(m.source, tag::kFit, encode_fit(req, f, row));
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
          FtInstruments::inc(ins_.heals);
          obs::trace_instant("ft.heal", obs::kCatFt, "gen", gen);
          apply_pending(Decision{gen, adopted, false, {}},
                        /*close=*/false);
        }
        comm_.send(m.source, tag::kBlocks, blocks_.ranges_msg(req, false));
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
        adopt_table(std::move(next), epoch, gen);
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
        comm_.send(m.source, tag::kFinal, blocks_.ranges_msg(req, true));
        break;
      }
      case tag::kLogAppend: {
        // The write-ahead record of the generation in flight. Records from
        // the past (a deposed master still streaming) are acknowledged but
        // not kept — the log stays in generation order.
        DecisionLogRecord rec = DecisionLogRecord::decode_blob(m.payload);
        const std::uint64_t gen = rec.decision.gen;
        if (log_.empty() || gen >= log_.newest()->decision.gen) {
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
    const std::optional<Decision> prev = get_prev(r);
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
    adopt_table(std::move(next), epoch, resume);
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

  /// Election-time receive loop: record votes and serve every other message
  /// for `window`, restarted whenever `extend(view)` accepts a vote.
  /// nullopt once the window closes; otherwise run_election's result (true:
  /// this thread is done; false: back to the worker loop).
  template <class Extend>
  std::optional<bool> serve_until(std::chrono::nanoseconds window,
                                  Extend&& extend) {
    auto deadline = Clock::now() + window;
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
          deadline - Clock::now());
      if (left <= std::chrono::nanoseconds::zero()) return std::nullopt;
      auto m = comm_.recv_for(par::kAnySource, par::kAnyTag, left);
      if (!m) return std::nullopt;
      if (m->tag == tag::kElect) {
        if (extend(note_vote(*m))) deadline = Clock::now() + window;
        continue;
      }
      const Ev ev = handle_message(*m);
      if (ev == Ev::Exit) return true;
      if (ev != Ev::Handled) return false;  // took over, evicted, master back
    }
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
      const auto joined = [&](std::uint64_t v) {
        if (v < view) return false;
        view = v;
        return true;
      };
      if (const auto done = serve_until(shared_.window, joined)) return *done;
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
      const auto ignore = [](std::uint64_t) { return false; };
      if (const auto done = serve_until(my_silence(), ignore)) return *done;
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

    nature_.emplace(config_.nature_config(graph_));
    std::uint64_t start_gen = 0;
    prev_decision_.reset();
    if (const DecisionLogRecord* rec = log_.newest()) {
      const Decision last = rec->decision;
      if (pending_) {
        // The record *is* the decision this rank never received.
        EGT_ASSERT(pending_->gen == last.gen);
        heal_pending(last);
      }
      // The record's table hash is the integrity check on our replica: a
      // mismatch means the log and the strategy table disagree and nothing
      // downstream can be trusted.
      EGT_ASSERT(pop_.table_hash() == rec->table_hash);
      nature_->restore_state(rec->nature);
      start_gen = last.gen + 1;
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
    const std::vector<int> survivors = members();
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
    put_prev(w, prev_decision_);
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

  // Send `wire` to every alive rank, run `sent` (the master's own work,
  // overlapped with the round trips), then await each one's `reply_tag`
  // (await_from semantics); a rank that stays silent is declared dead.
  // False when any rank died during the round.
  template <class Accept>
  bool broadcast_acked(int tagv, const std::vector<std::byte>& wire,
                       int reply_tag, Accept&& accept,
                       const std::function<void()>& sent = {}) {
    for (int w : alive_) comm_.send(w, tagv, wire);
    if (sent) sent();
    bool complete = true;
    const std::vector<int> expected = alive_;
    for (int w : expected) {
      if (!is_alive(w)) continue;  // lost to a nested death
      if (!await_from(w, reply_tag, accept,
                      [&] { comm_.send(w, tagv, wire); })) {
        handle_death(w);
        complete = false;
      }
    }
    return complete;
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
    const std::vector<int> survivors = members();
    table_.reassign(dead, survivors);
    const std::uint32_t target_epoch = ++epoch_;
    adopt_missing_ranges(current_gen_, in_generation_);
    Writer w;
    w.u64(current_gen_);
    w.u32(target_epoch);
    table_.encode(w);
    broadcast_acked(tag::kReconfig, w.take(), tag::kReconfigAck,
                    [&](const par::Message& m) {
                      Reader rd(m.payload, kWhat);
                      const std::uint32_t acked = rd.u32("acked epoch");
                      rd.expect_exhausted();
                      return acked >= target_epoch;
                    });
  }

  // Current fitness of one SSet, wherever it lives; with `row`, also its
  // payoff row as BlockSet::fitness gives it.
  double fitness_of(pop::SSetId k, std::vector<double>* row = nullptr) {
    for (;;) {
      const int owner = table_.owner_of(k);
      if (owner == rank_) return blocks_.fitness(k, row);
      const std::uint64_t req = ++req_seq_;
      Writer w;
      w.u64(req);
      w.u32(k);
      w.u8(row != nullptr ? 1 : 0);
      const auto wire = w.take();
      comm_.send(owner, tag::kReqFit, wire);
      double value = 0.0;
      const bool ok = await_from(
          owner, tag::kFit,
          [&](const par::Message& m) {
            FitReply fit = decode_fit(m.payload, config_.ssets);
            if (fit.req != req) return false;
            value = fit.fitness;
            if (row != nullptr) *row = std::move(fit.row);
            return true;
          },
          [&] { comm_.send(owner, tag::kReqFit, wire); });
      if (ok) return value;
      handle_death(owner);  // retry against the new owner
    }
  }

  // The whole population's fitness, gathered from every rank's blocks:
  // the current values (the Moran gather, REQ_BLOCKS → BLOCKS) or the
  // top-of-generation `snapshot` (the final gather, STOP → FINAL). The
  // Moran request restates this generation's PC decision so a worker
  // whose DECIDE was dropped can heal before replying — the gather must
  // see post-adoption fitness to match the fault-free trajectory.
  std::vector<double> collect_full(bool snapshot, std::uint64_t gen = 0,
                                   bool adopted = false) {
    const int req_tag = snapshot ? tag::kStop : tag::kReqBlocks;
    for (;;) {
      std::vector<double> full(config_.ssets, 0.0);
      const std::uint64_t req = ++req_seq_;
      Writer rw;
      rw.u64(req);
      if (!snapshot) {
        rw.u64(gen);
        rw.u8(adopted ? 1 : 0);
      }
      const bool complete = broadcast_acked(
          req_tag, rw.take(), snapshot ? tag::kFinal : tag::kBlocks,
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
          [&] { blocks_.fill(full, snapshot); });
      // A death mid-gather invalidates the round (the new owner's values
      // were not requested) — rerun it with a fresh request id; late
      // replies to the old id are discarded as stale.
      if (complete) return full;
    }
  }

  /// Write-ahead replication: the record of `gen` (with the decision
  /// already applied locally) reaches every standby — the first
  /// standby_replicas live ranks — before the caller may broadcast the
  /// generation's final decision. A standby dying mid-stream is recovered
  /// and the refreshed record (new ownership view) is re-streamed; append
  /// is idempotent per generation on the survivors.
  void replicate(const Decision& d) {
    FtInstruments::inc(ins_.log_records);
    for (;;) {
      DecisionLogRecord rec;
      rec.view = view_;
      rec.nature = nature_->save_state();
      rec.decision = d;
      rec.epoch = epoch_;
      rec.table = table_;
      rec.alive = members();
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
              return decode_u64(m, "acked record generation") == d.gen;
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

  // -- GenerationTransport: the ft-star master ------------------------------

  void play(std::uint64_t gen) override {
    current_gen_ = gen;
    in_generation_ = true;
    // The master plays in share_plan, once its PLAN is out.
    if (master_ != rank_) blocks_.begin_generation(gen);
  }

  std::uint64_t games_played() const override {
    return blocks_.games_played();
  }

  void share_plan(std::uint64_t gen, pop::GenerationPlan& plan) override {
    const auto wire = encode_plan_msg(gen, prev_decision_,
                                      core::encode_generation_plan(plan));
    // PLAN goes out first. While the workers play, the master folds the
    // last generation's changes into its blocks and plays its own; then it
    // collects the acks — the per-generation heartbeat. A killed rank is
    // detected there, before any of this generation's decisions.
    broadcast_acked(
        tag::kPlan, wire, tag::kPlanAck,
        [&](const par::Message& m) {
          return decode_u64(m, "acked generation") == gen;
        },
        [&] {
          blocks_.fold();
          core::PhaseScope phase(ins_.game_play, obs::phase::kGamePlay);
          const std::uint64_t games = blocks_.games_played();
          blocks_.begin_generation(gen);
          phase.span().set_arg("games", blocks_.games_played() - games);
        });
    prev_decision_.reset();
  }

  std::array<double, 2> pc_fitness(const pop::GenerationPlan::Pc& pc) override {
    // Teacher and learner on different ranks: the teacher's row comes
    // along, so the learner's owner can copy it if the learner adopts.
    teacher_row_.reset();
    std::vector<double> row;
    const bool ship = table_.owner_of(pc.teacher) != table_.owner_of(pc.learner);
    const double teacher = fitness_of(pc.teacher, ship ? &row : nullptr);
    if (!row.empty()) {
      teacher_row_ = TeacherRow{pc.teacher, pc.learner, std::move(row)};
    }
    return {teacher, fitness_of(pc.learner)};
  }

  // An adopted learner the master owns takes the row now; a worker's
  // rides its DECIDE (send_decide).
  void share_adoption(bool& adopted) override {
    if (!teacher_row_ ||
        (adopted && table_.owner_of(teacher_row_->learner) != rank_)) {
      return;
    }
    if (adopted) blocks_.offer_row(std::move(*teacher_row_));
    teacher_row_.reset();
  }

  /// DECIDE to every alive worker; the learner's owner's copy also
  /// carries the teacher's row, once per generation.
  void send_decide(DecideStage stage, const Decision& d) {
    const auto wire = encode_decide(stage, d, {});
    const int learner_owner =
        teacher_row_ ? table_.owner_of(teacher_row_->learner) : -1;
    for (int w : alive_) {
      comm_.send(w, tag::kDecide,
                 w == learner_owner
                     ? encode_decide(stage, d, teacher_row_->values)
                     : wire);
    }
    teacher_row_.reset();
  }

  std::span<const double> gather_fitness(const pop::GenerationPlan& plan,
                                         const Decision& d) override {
    if (plan.pc) {
      // The Moran gather needs post-adoption fitness on every rank, so
      // this intermediate decision cannot wait for the generation's
      // write-ahead record; the final (committing) one in finish() does.
      send_decide(DecideStage::Pc, d);
    }
    full_ = collect_full(/*snapshot=*/false, d.gen, d.adopted);
    return full_;
  }

  void strategy_changed(pop::SSetId k, const pop::Population& pop,
                        std::uint64_t gen) override {
    blocks_.log_change(k, pop, gen);  // folded once PLAN is out (share_plan)
  }

  void finish(const core::GenerationOutcome& out) override {
    // Write-ahead: the record of this generation reaches the standbys
    // before any worker can see its final decision.
    replicate(out.decision);
    if (out.plan.pc || out.plan.moran) {
      core::PhaseScope phase(ins_.decision, obs::phase::kDecisionBcast);
      send_decide(out.plan.moran ? DecideStage::Final : DecideStage::Pc,
                  out.decision);
      prev_decision_ = out.decision;
    }
    finish_generation(out.decision.gen);
  }

  void run_master(std::uint64_t start_gen) {
    const core::GenerationContext ctx{*this, pop_, ins_, &*nature_,
                                      shared_.options.trace, false};
    for (std::uint64_t gen = start_gen; gen < config_.generations; ++gen) {
      if (kill_gen_ && *kill_gen_ == gen) {
        // The injected crash, at the generation boundary: the previous
        // generation is fully replicated, this one was never planned — the
        // successor's restored RNG replans it identically.
        blocks_.fold();  // the last generation's work, counted as fault-free
        FtInstruments::inc(ins_.kills);
        obs::trace_instant("ft.kill", obs::kCatFt, "gen", gen);
        return;
      }
      const core::GenerationOutcome out = core::run_generation(ctx, gen);

      if (shared_.options.metrics_stream != nullptr &&
          shared_.options.metrics_stream->wants(gen)) {
        // Reuse the Moran-gather protocol op to assemble the full fitness
        // vector for the streamed global mean (workers answer kReqBlocks at
        // any point of their loop). Deaths mid-gather are handled as usual.
        const std::vector<double> full =
            collect_full(/*snapshot=*/false, gen, out.decision.adopted);
        double sum = 0.0;
        for (const double f : full) sum += f;
        shared_.options.metrics_stream->on_generation(
            gen, pop_, registry_, sum / static_cast<double>(config_.ssets));
      }
    }

    // Final snapshot gather (top-of-last-generation fitness, matching the
    // base engines; its fill folds and counts the last generation's
    // changes). Workers keep serving until the explicit release, so a
    // dropped FINAL reply is simply re-requested.
    current_gen_ = config_.generations > 0 ? config_.generations - 1 : 0;
    std::ranges::copy(collect_full(/*snapshot=*/true),
                      pop_.mutable_fitness().begin());

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
  // This generation's teacher row, when teacher and learner live on
  // different ranks: for the learner owner's DECIDE.
  std::optional<TeacherRow> teacher_row_;
  bool in_generation_ = false;
  std::vector<double> full_;  // the Moran gather's result
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
