// Job checkpoints ("egt.job_ckpt/v3"): the preemption/resume unit.
//
// A job checkpoint wraps a core engine checkpoint — which already carries
// the fitness block's evaluation state, so a restore re-evaluates nothing
// (core/checkpoint.hpp) — with the job's accounting: attempt and
// preemption counts and the engine.* counters accumulated across earlier
// attempts. A preempted-and-resumed job therefore finishes with the
// *same* final table, fitness and counters as an undisturbed run — the
// property the scheduler chaos soak asserts.
//
// Blob layout (wire; CRC footer and atomic rename are added by the
// CheckpointDir it is committed through):
//   u64 magic "EGTJCKP1", u32 version,
//   u32 attempts, u32 preemptions,
//   7 × u64 accumulated engine.* counters,
//   bytes core checkpoint (core/checkpoint.hpp blob, self-validating).
// v1 additionally carried a dedup class-pair list and v2 the fitness
// block's fitness and matrix, which the core blob now holds; older blobs
// are rejected and the scheduler falls back to a fresh start.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "serve/job.hpp"

namespace egt::serve {

inline constexpr std::uint64_t kJobCheckpointMagic =
    0x4547544a434b5031ull;  // "EGTJCKP1"
inline constexpr std::uint32_t kJobCheckpointVersion = 3;

struct JobCheckpoint {
  std::uint32_t attempts = 0;
  std::uint32_t preemptions = 0;
  /// engine.* event totals accumulated across every attempt up to the
  /// moment of capture (the resumed attempt adds its own growth on top).
  EngineCounters counters;
  std::vector<std::byte> core;  ///< core/checkpoint.hpp blob
};

std::vector<std::byte> encode_job_checkpoint(const JobCheckpoint& ckpt);

/// Throws core::CheckpointError on any damage or version mismatch.
JobCheckpoint decode_job_checkpoint(const std::vector<std::byte>& blob);

/// Capture a running engine plus the job's accounting.
JobCheckpoint capture_job_checkpoint(const core::Engine& engine,
                                     const EngineCounters& counters,
                                     std::uint32_t attempts,
                                     std::uint32_t preemptions);

/// Reconstruct the engine mid-run (core::restore_checkpoint of the core
/// blob, whose config fingerprint is validated against `config`).
core::Engine resume_job_engine(const core::SimConfig& config,
                               JobCheckpoint ckpt,
                               obs::MetricsRegistry* metrics = nullptr);

}  // namespace egt::serve
