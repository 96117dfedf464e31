// The fault-tolerant parallel engine.
//
// Same simulation as core::run_parallel — the master rank is the Nature
// Agent and runs the shared generation step (core/generation.hpp), every
// rank owns contiguous fitness blocks over the replicated strategy table —
// but coordinated over a master-driven point-to-point protocol
// (ft/protocol.hpp) that survives rank failures injected by a FaultPlan,
// *including failures of the master itself*:
//
//   detection   Every generation plan is acknowledged (the ack doubles as
//               a heartbeat, so detection latency is one generation). A
//               missed ack or fitness return makes the master *suspect*
//               the rank; up to max_pings ping/pong probes guard against
//               false positives before it is declared dead. Workers
//               symmetrically watch the master: silence beyond
//               master_silence_ms triggers an election.
//   recovery    The dead rank's SSet ranges are re-partitioned across the
//               survivors (ft/ownership.hpp). An adopting rank recomputes
//               the block from the replicated strategy table and each
//               SSet's last-change generation, which every rank already
//               holds (core::BlockFitness::initialize): bit-exact in every
//               fitness mode, frozen samples included, so nothing is
//               checkpointed. The new table is broadcast point-to-point
//               (RECONFIG, epoch-numbered) and acknowledged.
//   failover    The master streams each generation's decision record —
//               Nature's post-draw RNG state, the generation's decision,
//               the ownership view — to `standby_replicas` warm standbys
//               (ft/decision_log.hpp) and waits for the acks *before*
//               broadcasting the generation's decision. On master
//               death the survivors elect the rank with the newest log
//               (lowest rank on ties), which restores Nature bit-for-bit
//               from its newest record, announces itself (TAKEOVER), folds
//               the dead master's ranges in, and finishes the run.
//   resilience  Dropped or delayed protocol messages are healed by
//               deduplicated resends; a dropped decision broadcast is
//               carried by the next generation's plan.
//
// Determinism: Nature's RNG trajectory survives failover — the decision
// log is replicated ahead of every decision broadcast, and kills land at
// generation boundaries (a worker dies receiving a PLAN, a master at the
// top of its loop), so the successor's restored RNG consumes draws exactly
// as the dead master would have. Fitness is a function of the population,
// the generation and each SSet's last-change generation, so a recovered
// run's table and fitness — and, for kill-only plans, its merged
// "engine.*" counters — are bit-identical to the fault-free run, wherever
// the kill lands. Caveats (DESIGN.md §7): drop-induced false-positive
// evictions keep the trajectory exact but can over-count pairs; elections
// assume control messages are delivered within the silence timeout.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "core/trace.hpp"
#include "ft/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "par/runtime.hpp"
#include "pop/population.hpp"

namespace egt::obs {
class MetricsStreamWriter;
}

namespace egt::ft {

struct FtRunOptions {
  /// Deterministic failures to inject (validated against nranks). Empty =
  /// fault-free; the run then produces the same trajectory and counters as
  /// core::run_parallel / the serial engine.
  FaultPlan plan;

  /// Ignored: recovery recomputes every block, so the engine writes no
  /// block checkpoints. Kept only because the benchmark harness
  /// (perfbench/ledger.cpp) still assigns it.
  std::uint64_t checkpoint_every = 0;

  /// Warm standbys receiving the replicated decision log. Rank-0 kills
  /// require at least one; cascading master+standby kills require one more
  /// than the depth of the cascade. 0 restores PR 2 behaviour (master is a
  /// single point of failure; plans killing rank 0 are rejected).
  int standby_replicas = 1;

  /// How long the master waits for an expected reply (plan ack, fitness
  /// return, reconfig ack) before suspecting the sender. Must be generous
  /// relative to one generation's compute time: a busy worker that misses
  /// the deadline is evicted as a false positive — the run stays correct
  /// (eviction is trajectory-preserving) but does redundant work.
  double detect_timeout_ms = 500.0;

  /// Deadline of each ping/pong probe of a suspected rank.
  double ping_timeout_ms = 250.0;

  /// Probes before a suspected rank is declared dead.
  int max_pings = 3;

  /// Master silence a worker tolerates before starting an election.
  /// 0 = auto: 4 * (detect_timeout + max_pings * ping_timeout), which
  /// covers the master stalling through several failure detections;
  /// ranks without a log copy wait twice as long, giving standbys
  /// first-mover priority. Must be generous relative to recovery time: a
  /// premature election against a live-but-stalled master degenerates into
  /// two masters racing to the same answer (trajectory-preserving, but
  /// counters diverge like a false-positive eviction).
  double master_silence_ms = 0.0;

  /// Vote-collection window of an election round. 0 = auto (one
  /// detect_timeout); the window extends while new votes arrive.
  double election_window_ms = 0.0;

  /// Also merge the per-rank registries into this registry. May be null.
  obs::MetricsRegistry* metrics = nullptr;

  /// The acting master emits one core::TracePoint per committed generation
  /// (see core/trace.hpp; fitness_hash stays 0 — the master owns only a
  /// block). On failover the successor resumes emitting from the
  /// generation it replans, so a sink must key points by generation and
  /// tolerate the master role migrating across rank threads. May be null.
  core::TraceSink* trace = nullptr;

  /// Live NDJSON telemetry (obs/metrics_stream.hpp). The acting master
  /// streams one line per committed generation; the writer deduplicates
  /// generations, so failover replays are emitted once. May be null.
  obs::MetricsStreamWriter* metrics_stream = nullptr;
};

struct FtResult {
  pop::Population population;  ///< final strategy table + final fitness
  par::TrafficReport traffic;
  std::uint64_t generations = 0;
  /// Ranks declared dead (injected kills + false-positive evictions).
  int ranks_lost = 0;
  /// Completed master elections (0 in a run that never lost a master).
  int failovers = 0;
  /// Merged per-rank metrics: the base engine's phase timers and
  /// "engine.*" counters plus the "ft.*" family (ft.recoveries,
  /// ft.failovers, ft.log.*, ft.recovery.*, ...).
  obs::MetricsSnapshot metrics;
};

/// Run the full simulation on `nranks` ranks, surviving the plan's faults.
/// Blocks until done. Throws std::invalid_argument on an inexecutable
/// plan (ranks out of range, every rank killed, or a master kill with
/// standby_replicas == 0).
FtResult run_parallel_ft(const core::SimConfig& config, int nranks);
FtResult run_parallel_ft(const core::SimConfig& config, int nranks,
                         const FtRunOptions& options);

}  // namespace egt::ft
