// Run manifest: one JSON document per run recording what was executed
// (config, build), what it cost (wall time, per-phase times, counters) and
// what it moved (broadcast vs point-to-point traffic, per rank).
//
// Schema "egt.run_manifest/v4" (validated by tests/obs/manifest_test.cpp;
// documented for external consumers in DESIGN.md §Observability). v2 added
// p50/p95/p99 latency quantiles (estimated from the power-of-two buckets)
// to every histogram body; v3 adds the optional "game" block recording the
// GameSpec a simulation played (tools that run no simulation omit it); v4
// adds the "kernel" block: which game::simd kernel the batch entry points
// (Markov solve, sampled lane kernel) dispatched to when the manifest was
// written, and why, plus the widths the memory-one payoff kernel and the
// sampled kernel ran at (mem1_lanes: pairs in flight, stream_lanes: games
// in flight; 16 / 8 under "avx2", 1 under "scalar"). cpu_avx512 means the
// CPU reports both AVX-512F and AVX-512DQ, which the 16-wide kernels need:
//
//   {
//     "schema": "egt.run_manifest/v4",
//     "tool": "<producing binary>",
//     "git_describe": "<git describe --always --dirty, or 'unknown'>",
//     "kernel": { "avx2_compiled": bool, "cpu_avx2": bool,
//                 "cpu_avx512": bool, "forced_scalar": bool,
//                 "dispatched": "avx2" | "scalar", "mem1_lanes": u64,
//                 "stream_lanes": u64 },
//     "config": { "summary": "...", "fingerprint": u64, ...tool extras },
//     "game": {                              // v3, when ManifestInfo.game set
//       "kind": "matrix" | "public_goods",
//       "name": "<registry / display name>",
//       "actions": u64, "play": "iterated" | "one_shot",
//       "labels": [ "<action 0>", ... ],     // exactly `actions` entries
//       "rounds": u64, "noise": double,
//       "matrix_hash": "hex16",             // GameSpec::matrix_hash()
//       "pgg_r": double, "pgg_cost": double, "pgg_k": u64  // PGG only
//     },
//     "run": { "ranks": int (0 = serial), "generations": u64,
//              "wall_seconds": double },
//     "phases": { "<name>": { "seconds": double, "count": u64,
//                             "min_seconds": double, "max_seconds": double,
//                             "p50_seconds": double, "p95_seconds": double,
//                             "p99_seconds": double },
//                 ... },                     // "phase." prefix stripped
//     "timers": { "<full name>": { ...same shape... }, ... },
//                                            // every non-"phase." histogram
//     "counters": { "<name>": u64, ... },
//     "gauges": { "<name>": double, ... },
//     "traffic": {                           // parallel runs only
//       "bytes": u64, "messages": u64,
//       "p2p": { "bytes": u64, "messages": u64 },
//       "broadcast": { "bytes": u64, "messages": u64 },
//       "per_rank": [ { "rank": int, "p2p_bytes": u64, "p2p_messages": u64,
//                       "bcast_bytes": u64, "bcast_messages": u64 }, ... ]
//     }
//   }
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "game/spec/gamespec.hpp"
#include "obs/metrics.hpp"
#include "par/runtime.hpp"

namespace egt::util {
class JsonWriter;
}

namespace egt::obs {

inline constexpr const char* kManifestSchema = "egt.run_manifest/v4";

/// Build identity baked in by CMake ("unknown" outside a git checkout).
std::string git_describe();

/// Everything a manifest records. `metrics` and `traffic` are optional;
/// `config_fields` (when set) is invoked inside the "config" object to add
/// tool-specific fields beyond summary + fingerprint.
struct ManifestInfo {
  std::string tool;
  std::string config_summary;
  std::uint64_t config_fingerprint = 0;
  std::function<void(util::JsonWriter&)> config_fields;

  /// When set, emitted as the v3 "game" block (kind, actions, labels,
  /// matrix hash). Must outlive the write call.
  const game::GameSpec* game = nullptr;

  int ranks = 0;  ///< 0 = serial engine
  std::uint64_t generations = 0;
  double wall_seconds = 0.0;

  const MetricsSnapshot* metrics = nullptr;
  const par::TrafficReport* traffic = nullptr;
};

/// Emit the manifest JSON (schema above) to `os`.
void write_run_manifest(std::ostream& os, const ManifestInfo& info);

/// Emit to `path`; throws std::runtime_error when the file cannot be
/// opened.
void write_run_manifest_file(const std::string& path,
                             const ManifestInfo& info);

}  // namespace egt::obs
