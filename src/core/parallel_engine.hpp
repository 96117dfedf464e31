// The parallel engine: the paper's algorithm on the mini message-passing
// runtime.
//
// Mapping (paper §V): rank 0 doubles as the Nature Agent; every rank owns a
// contiguous block of SSets and computes their game play locally against
// the replicated strategy table (no communication in the game-dynamics
// tier). Population dynamics per generation:
//
//   PaperBcast (default, the paper's §V-B pattern):
//     rank 0 plans the generation and broadcasts the event plan (including
//     any mutated strategy payload) over the binomial tree; owners of the
//     PC pair return fitness point-to-point; rank 0 broadcasts the adoption
//     decision; all ranks apply updates to their replica.
//
//   ReplicatedNature (ablation): every rank replays Nature's RNG, so the
//   schedule and mutation payloads need no broadcast; only the PC pair's
//   fitness is combined with an allreduce.
//
// Both patterns are transports of the shared generation step
// (core/generation.hpp). For any rank count the trajectory is
// bit-identical to the serial Engine — the central integration-test
// invariant.
//
// Observability: every rank times the same five per-generation phases the
// serial engine reports (obs::phase) into its own registry; the registries
// are merged after the run into ParallelResult::metrics. Traffic is
// reported per rank, split broadcast-tree vs point-to-point.
#pragma once

#include "core/config.hpp"
#include "core/trace.hpp"
#include "obs/metrics.hpp"
#include "par/runtime.hpp"
#include "pop/population.hpp"

namespace egt::obs {
class MetricsStreamWriter;
}

namespace egt::core {

struct ParallelResult {
  pop::Population population;  ///< final strategy table + final fitness
  par::TrafficReport traffic;  ///< whole-run traffic, split by class + rank
  std::uint64_t generations = 0;
  /// Merged per-rank metrics: phase timers (obs::phase) and "engine.*"
  /// counters. Event counters are counted once (at rank 0);
  /// "engine.pairs_evaluated" sums every rank's block and therefore
  /// matches the serial engine's count for the same config.
  obs::MetricsSnapshot metrics;
};

struct ParallelRunOptions {
  /// Also merge the per-rank registries into this registry (e.g. the
  /// caller's process-wide one). May be null.
  obs::MetricsRegistry* metrics = nullptr;
  /// Rank 0 logs a heartbeat (gen/s, ETA) through util::log_info.
  bool progress = false;
  /// Seconds between heartbeats.
  double progress_interval_seconds = 2.0;
  /// Rank 0 emits one core::TracePoint per generation (see core/trace.hpp;
  /// fitness_hash stays 0 — ranks only own a block). May be null.
  TraceSink* trace = nullptr;
  /// Live NDJSON telemetry (obs/metrics_stream.hpp). When set, every rank
  /// joins a per-emitted-generation fitness reduction and rank 0 streams
  /// the line. May be null.
  obs::MetricsStreamWriter* metrics_stream = nullptr;
};

/// Run the full simulation on `nranks` ranks. Blocks until done.
ParallelResult run_parallel(const SimConfig& config, int nranks);
ParallelResult run_parallel(const SimConfig& config, int nranks,
                            const ParallelRunOptions& options);

}  // namespace egt::core
