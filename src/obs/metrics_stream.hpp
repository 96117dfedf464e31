// Live telemetry stream: one NDJSON line per generation, written while
// the run is still going (the serving-layer backbone for egtd's planned
// SSE endpoint; also consumable by `tail -f` + jq).
//
// Schema "egt.metrics_stream/v1" (one compact JSON object per line,
// validated by tests/obs/metrics_stream_test.cpp):
//
//   {
//     "schema": "egt.metrics_stream/v1",
//     "generation": u64,
//     "wall_seconds": double,             // since the writer was created
//     "mean_fitness": double,
//     "phases": { "game_play": double, "plan_bcast": double,
//                 "fitness_return": double, "decision_bcast": double,
//                 "apply_update": double },    // cumulative seconds
//     "counters": { "games_played": u64, "pairs_evaluated": u64 },
//     "strategy_classes": u64,            // distinct strategies
//     "top_class_counts": [ u64, ... ],   // top-8 census cluster sizes
//     "ft": { "<ft.* counter>": u64, ... }     // only when any exist
//   }
//
// The writer is shared across engine threads (rank 0 / the acting ft
// master stream through the same instance a failover may migrate), so
// emission is serialized by a mutex and generations are deduplicated —
// a replanned generation after failover is not streamed twice.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <span>
#include <string>

#include "core/observer.hpp"
#include "obs/metrics.hpp"
#include "pop/population.hpp"
#include "util/timer.hpp"

namespace egt::obs {

inline constexpr const char* kMetricsStreamSchema = "egt.metrics_stream/v1";

class MetricsStreamWriter {
 public:
  struct Options {
    std::string path;
    /// Generations between emitted lines (1 = every generation).
    std::uint64_t every = 1;
  };

  /// Opening the path may fail; the writer then stays inert (ok() false)
  /// so callers can warn-and-continue instead of aborting the run.
  explicit MetricsStreamWriter(Options options);

  MetricsStreamWriter(const MetricsStreamWriter&) = delete;
  MetricsStreamWriter& operator=(const MetricsStreamWriter&) = delete;

  bool ok() const noexcept { return ok_; }
  const std::string& path() const noexcept { return options_.path; }
  std::uint64_t lines_written() const noexcept {
    return lines_.load(std::memory_order_relaxed);
  }

  /// Would `generation` produce a line (sampling gate only)? Deterministic
  /// across ranks — lets every rank agree on whether to join the fitness
  /// reduction that feeds the rank-0 emission.
  bool wants(std::uint64_t generation) const noexcept {
    return ok_ && generation % options_.every == 0;
  }

  /// Emit one snapshot line for `generation`. Thread-safe; lines are
  /// emitted in generation order and duplicates (failover replays) are
  /// dropped. `registry` is sampled inside the call — pass the registry
  /// of whichever rank is streaming.
  void on_generation(std::uint64_t generation, const pop::Population& pop,
                     const MetricsRegistry& registry);

  /// As above with the caller's SSet-ordered fitness vector in place of
  /// `pop.fitness()`: a parallel rank's population holds only a stale
  /// copy, so the caller assembles the top-of-generation vector first.
  /// Every engine's mean is util::mean over that vector: the same bits.
  void on_generation(std::uint64_t generation, const pop::Population& pop,
                     const MetricsRegistry& registry,
                     std::span<const double> fitness);

 private:
  Options options_;
  bool ok_ = false;
  std::ofstream out_;
  std::mutex mu_;
  std::int64_t last_generation_ = -1;
  util::Timer wall_;
  std::atomic<std::uint64_t> lines_{0};
};

/// Serial-engine adapter: forwards the Observer hook to a stream writer.
class MetricsStreamObserver final : public core::Observer {
 public:
  MetricsStreamObserver(MetricsStreamWriter& writer,
                        const MetricsRegistry& registry)
      : writer_(&writer), registry_(&registry) {}

  void on_generation(const pop::Population& pop,
                     const core::GenerationRecord& record) override {
    writer_->on_generation(record.generation, pop, *registry_);
  }

 private:
  MetricsStreamWriter* writer_;
  const MetricsRegistry* registry_;
};

}  // namespace egt::obs
