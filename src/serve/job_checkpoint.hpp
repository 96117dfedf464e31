// Job checkpoints ("egt.job_ckpt/v2"): the preemption/resume unit.
//
// A plain core checkpoint restores the trajectory bit-exactly but pays a
// full re-initialization (ssets² pairs) on restore — which is why
// simcheck marks checkpoint/restore counters non-comparable. A job
// checkpoint additionally captures the fitness block's evaluation state
// (per-row fitness and cached payoff matrix — the matrix is also the whole
// dedup state) and the job's accumulated engine.* counters, so a preempted-and-resumed job
// finishes with the *same* final table, fitness and counters as an
// undisturbed run — the property the scheduler chaos soak asserts.
//
// Blob layout (wire; CRC footer and atomic rename are added by the
// CheckpointDir it is committed through):
//   u64 magic "EGTJCKP1", u32 version,
//   u32 attempts, u32 preemptions,
//   7 × u64 accumulated engine.* counters,
//   bytes core checkpoint (core/checkpoint.hpp blob, self-validating),
//   u32 fitness count + doubles, u32 matrix count + doubles.
// v1 additionally carried a dedup class-pair list; a v1 blob is rejected
// and the scheduler falls back to a fresh start.
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
inline constexpr std::uint32_t kJobCheckpointVersion = 2;

struct JobCheckpoint {
  std::uint32_t attempts = 0;
  std::uint32_t preemptions = 0;
  /// engine.* event totals accumulated across every attempt up to the
  /// moment of capture (the resumed attempt adds its own growth on top).
  EngineCounters counters;
  std::vector<std::byte> core;  ///< core/checkpoint.hpp blob
  std::vector<double> fitness;
  std::vector<double> matrix;
};

std::vector<std::byte> encode_job_checkpoint(const JobCheckpoint& ckpt);

/// Throws core::CheckpointError on any damage or version mismatch.
JobCheckpoint decode_job_checkpoint(const std::vector<std::byte>& blob);

/// Capture a running engine plus the job's accounting.
JobCheckpoint capture_job_checkpoint(const core::Engine& engine,
                                     const EngineCounters& counters,
                                     std::uint32_t attempts,
                                     std::uint32_t preemptions);

/// Reconstruct the engine mid-run via the block-restore path (no
/// re-initialization; see Engine's FitnessRestore constructor). The core
/// blob's config fingerprint is validated against `config`.
core::Engine resume_job_engine(const core::SimConfig& config,
                               JobCheckpoint ckpt,
                               obs::MetricsRegistry* metrics = nullptr);

}  // namespace egt::serve
