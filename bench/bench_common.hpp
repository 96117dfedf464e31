// Shared plumbing for the paper-reproduction bench binaries.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "machine/costmodel.hpp"
#include "machine/perfsim.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace egt::bench {

/// Resolve the kernel cost table: the baked-in reference by default, a
/// fresh measurement of this host when --calibrate is passed.
inline machine::RoundCostTable resolve_costs(bool calibrate) {
  if (!calibrate) return machine::default_round_costs();
  std::fprintf(stderr, "calibrating game kernel on this host...\n");
  return machine::calibrate_host();
}

inline void print_header(const std::string& title, const std::string& what) {
  std::cout << "==================================================\n"
            << title << "\n"
            << what << "\n"
            << "==================================================\n";
}

inline std::string seconds_str(double s) {
  char buf[32];
  if (s >= 100) {
    std::snprintf(buf, sizeof buf, "%.0f", s);
  } else if (s >= 1) {
    std::snprintf(buf, sizeof buf, "%.2f", s);
  } else {
    std::snprintf(buf, sizeof buf, "%.3g", s);
  }
  return buf;
}

inline std::string pct_str(double frac) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * frac);
  return buf;
}

/// Emit an egt.run_manifest/v4 next to a bench's primary output file
/// (`<output_path>.manifest.json`), so a sweep's CSV always travels with
/// the provenance needed to re-run it: tool, config summary, git describe,
/// wall time and whatever metrics the bench recorded (e.g. a
/// "bench.sweep_point" timer). No-op when `output_path` is empty — benches
/// call this unconditionally after their `--csv` handling.
inline void write_bench_manifest(const std::string& output_path,
                                 const std::string& tool,
                                 const std::string& config_summary,
                                 double wall_seconds,
                                 const obs::MetricsRegistry& metrics) {
  if (output_path.empty()) return;
  const obs::MetricsSnapshot snap = metrics.snapshot();
  obs::ManifestInfo info;
  info.tool = tool;
  info.config_summary = config_summary;
  info.wall_seconds = wall_seconds;
  info.metrics = &snap;
  const std::string path = output_path + ".manifest.json";
  obs::write_run_manifest_file(path, info);
  std::cout << "manifest written: " << path << "\n";
}

}  // namespace egt::bench
