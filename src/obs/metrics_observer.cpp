#include "obs/metrics_observer.hpp"

#include <cstdio>

#include "util/log.hpp"
#include "util/stats.hpp"

namespace egt::obs {

MetricsObserver::MetricsObserver(MetricsRegistry& registry,
                                 MetricsObserverOptions options)
    : registry_(&registry),
      options_(std::move(options)),
      heartbeat_(options_.progress_interval_seconds) {
  if (!options_.csv_path.empty()) {
    try {
      csv_ =
          std::make_unique<util::CsvWriter>(options_.csv_path, csv_header());
    } catch (const std::exception& e) {
      // Warn-and-continue: losing the time series must not kill the run.
      registry_->counter("obs.write_errors").inc();
      util::log_warn() << "metrics CSV disabled: " << e.what();
      csv_.reset();
    }
  }
}

std::vector<std::string> MetricsObserver::csv_header() {
  std::vector<std::string> header = {"generation",       "wall_seconds",
                                     "gens_per_sec",     "mean_fitness",
                                     "pairs_evaluated",  "pc_events",
                                     "adoptions",        "mutations",
                                     "phase_game_play_s",
                                     "phase_plan_bcast_s",
                                     "phase_fitness_return_s",
                                     "phase_decision_bcast_s",
                                     "phase_apply_update_s"};
  for (const char* name : phase::kAll) {
    const std::string base = "phase_" + std::string(name).substr(6);
    header.push_back(base + "_p50_s");
    header.push_back(base + "_p95_s");
    header.push_back(base + "_p99_s");
  }
  return header;
}

void MetricsObserver::on_generation(const pop::Population& pop,
                                    const core::GenerationRecord& record) {
  ++seen_;
  if (csv_ != nullptr &&
      (options_.sample_interval == 0 ||
       record.generation % options_.sample_interval == 0)) {
    sample(pop, record.generation);
  }
  if (options_.progress) {
    heartbeat_.tick(record.generation, options_.total_generations);
  }
}

void MetricsObserver::sample(const pop::Population& pop,
                             std::uint64_t generation) {
  const double wall = wall_.seconds();
  const MetricsSnapshot snap = registry_->snapshot();
  std::vector<double> cells = {
      static_cast<double>(generation), wall,
      wall > 0.0 ? static_cast<double>(seen_) / wall : 0.0,
      util::mean(pop.fitness()),
      static_cast<double>(snap.counter_value("engine.pairs_evaluated")),
      static_cast<double>(snap.counter_value("engine.pc_events")),
      static_cast<double>(snap.counter_value("engine.adoptions")),
      static_cast<double>(snap.counter_value("engine.mutations")),
      snap.histogram_seconds(phase::kGamePlay),
      snap.histogram_seconds(phase::kPlanBcast),
      snap.histogram_seconds(phase::kFitnessReturn),
      snap.histogram_seconds(phase::kDecisionBcast),
      snap.histogram_seconds(phase::kApplyUpdate)};
  for (const char* name : phase::kAll) {
    static const HistogramSample kEmpty{};
    const auto* h = snap.find_histogram(name);
    if (h == nullptr) h = &kEmpty;
    cells.push_back(h->quantile_seconds(0.50));
    cells.push_back(h->quantile_seconds(0.95));
    cells.push_back(h->quantile_seconds(0.99));
  }
  std::vector<std::string> row;
  row.reserve(cells.size());
  for (double v : cells) row.push_back(util::fmt_num(v));
  csv_->row(row);
  ++samples_;
}

void Heartbeat::tick(std::uint64_t done, std::uint64_t total) {
  const double now = wall_.seconds();
  if (now - last_s_ < interval_seconds_) return;
  const double window = now - last_s_;
  const double rate =
      window > 0.0 ? static_cast<double>(done - last_done_) / window : 0.0;
  char line[160];
  if (total > 0 && rate > 0.0) {
    const std::uint64_t shown = done < total ? done : total;
    const double eta = static_cast<double>(total - shown) / rate;
    std::snprintf(line, sizeof line,
                  "gen %llu/%llu (%.1f%%) | %.0f gen/s | ETA %.0f s",
                  static_cast<unsigned long long>(shown),
                  static_cast<unsigned long long>(total),
                  100.0 * static_cast<double>(shown) /
                      static_cast<double>(total),
                  rate, eta);
  } else {
    std::snprintf(line, sizeof line, "gen %llu | %.0f gen/s",
                  static_cast<unsigned long long>(done), rate);
  }
  util::log_info() << line;
  last_s_ = now;
  last_done_ = done;
}

}  // namespace egt::obs
