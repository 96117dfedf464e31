// Checkpoint / restart for long evolutionary runs.
//
// The paper's production runs span 10^7 generations; on shared machines
// such runs need to survive job-time limits. A checkpoint captures the
// engine's complete mutable state — generation counter, Nature Agent RNG,
// the strategy table and the fitness block's evaluation state
// (core::BlockFitness::State) — so a restored engine adopts its fitness
// instead of re-evaluating and continues the *exact* trajectory of an
// uninterrupted run in every fitness mode: strategy table, fitness bits,
// every trace point and the growth of all seven engine.* counters
// (asserted in tests/core/checkpoint_test.cpp). Two restores re-evaluate
// instead: a v3 blob (no fitness state) and a resume under another fitness
// mode than the saving run's.
//
// Format: magic + explicit version field (kCheckpointVersion), then the
// payload. Truncated, corrupt or unsupported-version blobs, and a fitness
// state whose shape does not match the config, throw CheckpointError (a
// std::runtime_error, see core/wire.hpp) — never UB. The job checkpoint
// (serve/job_checkpoint.hpp) wraps this blob. (The fault-tolerant engine
// writes none: it recovers a block by recomputing it.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/wire.hpp"

namespace egt::obs {
class MetricsRegistry;
}

namespace egt::core {

/// Bumped whenever the checkpoint payload layout changes; readers reject
/// any value outside [kOldestCheckpointVersion, kCheckpointVersion] with a
/// clear CheckpointError. v3: the config fingerprint covers the full
/// GameSpec (matrix_hash — n-way tables, play mode, public-goods
/// parameters) and strategy payloads may carry the n-way kind byte
/// (game/strategy.hpp wire format). v4 appends the fitness block's
/// BlockFitness::State; a v3 blob restores by re-evaluating every pair.
/// v5: a matrix block saves the matrix alone (its exact row sums define
/// the fitness); a v4 blob's per-row fitness beside it is dropped.
inline constexpr std::uint32_t kCheckpointVersion = 5;
inline constexpr std::uint32_t kOldestCheckpointVersion = 3;

/// Serialize the engine's state. The blob embeds a fingerprint of the
/// configuration; restoring under a different config is rejected.
std::vector<std::byte> save_checkpoint(const Engine& engine);

/// Reconstruct an engine mid-run. `config` must match the saving run's
/// configuration (validated via the embedded fingerprint, which leaves the
/// fitness mode out: a state saved under another mode is dropped and every
/// pair re-evaluated). `metrics` optionally instruments the restored
/// engine (see Engine's constructor).
Engine restore_checkpoint(const SimConfig& config,
                          const std::vector<std::byte>& blob,
                          obs::MetricsRegistry* metrics = nullptr);

/// File convenience wrappers.
void write_checkpoint_file(const Engine& engine, const std::string& path);
Engine read_checkpoint_file(const SimConfig& config, const std::string& path,
                            obs::MetricsRegistry* metrics = nullptr);

/// Stable fingerprint of the dynamics-relevant configuration fields.
std::uint64_t config_fingerprint(const SimConfig& config);

}  // namespace egt::core
