// MetricsObserver: samples a MetricsRegistry on the engine's observer hook
// into a CSV time series, and optionally emits a progress heartbeat
// (generations/s and ETA) through util::log. Serial runs therefore produce
// the same per-phase schema the parallel engine's manifests report.
//
// CSV schema (one row per sample; also the header order):
//   generation, wall_seconds, gens_per_sec, mean_fitness, pairs_evaluated,
//   pc_events, adoptions, mutations, phase_game_play_s, phase_plan_bcast_s,
//   phase_fitness_return_s, phase_decision_bcast_s, phase_apply_update_s,
//   then per-sample latency quantiles for each of the five phases:
//   phase_<name>_p50_s, phase_<name>_p95_s, phase_<name>_p99_s
//
// An unwritable csv_path is a warning, not an error: the run continues
// without the CSV and the drop is counted in obs.write_errors.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/observer.hpp"
#include "obs/metrics.hpp"
#include "util/csv.hpp"
#include "util/timer.hpp"

namespace egt::obs {

/// The progress heartbeat of every engine: at most one util::log_info line
/// per `interval_seconds`,
///   "gen <done>/<total> (<pct>%) | <rate> gen/s | ETA <s> s"
/// or "gen <done> | <rate> gen/s" without a total (or before any progress).
class Heartbeat {
 public:
  explicit Heartbeat(double interval_seconds)
      : interval_seconds_(interval_seconds) {}
  /// `done` generations of `total` (0 = unknown) have run.
  void tick(std::uint64_t done, std::uint64_t total);

 private:
  double interval_seconds_;
  util::Timer wall_;
  double last_s_ = 0.0;
  std::uint64_t last_done_ = 0;
};

struct MetricsObserverOptions {
  /// CSV time-series path; empty disables the CSV output.
  std::string csv_path;
  /// Generations between CSV samples (0 samples every generation).
  std::uint64_t sample_interval = 0;
  /// Emit heartbeat lines via util::log_info.
  bool progress = false;
  /// Seconds between heartbeats.
  double progress_interval_seconds = 2.0;
  /// Total planned generations (for % complete and ETA; 0 disables both).
  std::uint64_t total_generations = 0;
};

class MetricsObserver final : public core::Observer {
 public:
  MetricsObserver(MetricsRegistry& registry, MetricsObserverOptions options);

  void on_generation(const pop::Population& pop,
                     const core::GenerationRecord& record) override;

  /// Columns of the CSV output, in order.
  static std::vector<std::string> csv_header();

  std::uint64_t samples_written() const noexcept { return samples_; }

 private:
  void sample(const pop::Population& pop, std::uint64_t generation);

  MetricsRegistry* registry_;
  MetricsObserverOptions options_;
  std::unique_ptr<util::CsvWriter> csv_;
  util::Timer wall_;
  std::uint64_t seen_ = 0;     ///< generations observed
  std::uint64_t samples_ = 0;  ///< CSV rows written
  Heartbeat heartbeat_;
};

}  // namespace egt::obs
