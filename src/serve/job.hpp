// Job model for the serving layer (DESIGN.md §11).
//
// A job is one simulation spec moving through the scheduler's state
// machine:
//
//   Queued ──dispatch──▶ Running ──finish──▶ Completed
//     ▲                    │ ├─ preempt (slice up, others waiting) ─▶ Queued
//     │                    │ ├─ worker kill / watchdog expiry ──────▶ Queued
//     └────── backoff ─────┘ │       (attempts left; exponential backoff)
//                            ├─ attempts exhausted ────────────────▶ Failed
//                            └─ cancel ────────────────────────────▶ Cancelled
//
// Requeues after a preemption or a failed attempt resume from the job's
// newest intact checkpoint (serve/job_checkpoint.hpp) when one exists, so
// progress survives both eviction and worker death — and the completed
// job is bit-identical to an undisturbed serial run either way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/generation.hpp"

namespace egt::serve {

/// The seven "engine.*" event counters a job accounts across attempts.
using core::counters_add;
using core::counters_from;
using core::EngineCounters;

enum class JobState : std::uint8_t {
  Queued,
  Running,
  Completed,
  Failed,
  Cancelled,
};

const char* to_string(JobState s) noexcept;

/// Terminal output of a completed job — everything the acceptance
/// comparison against an undisturbed serial run needs (final strategy
/// table hash, exact fitness vector, merged engine.* counters), plus the
/// retry/preemption history. Carried verbatim by the journal's Completed
/// record so a restarted daemon still serves the result.
struct JobResult {
  std::uint64_t generations = 0;
  std::uint64_t table_hash = 0;
  std::uint64_t fitness_hash = 0;
  std::vector<double> fitness;
  EngineCounters counters;
  std::uint32_t attempts = 0;     ///< dispatches (1 = ran once, clean)
  std::uint32_t preemptions = 0;  ///< slice evictions survived
};

}  // namespace egt::serve
