// Seeded chaos schedules for soak-testing the fault-tolerant engine.
//
// Every schedule is a pure function of one 64-bit seed: a small
// configuration (Sampled, SampledFrozen, or Analytic memory-two with
// frozen fall-through pairs) plus a random FaultPlan — kills (including
// rank 0, the Nature Agent, and same-generation cascades), drops and
// delays on data tags. Recovery recomputes every block bit for bit in
// every mode, which makes the oracle unconditional: whatever the schedule
// does, the surviving run must reproduce the serial engine's strategy
// table (and fitness) bit for bit.
//
// Drops and delays target only *data* tags (plan/ack/fitness/blocks/
// decide). Control traffic — log replication, election, takeover,
// eviction, abort — is excluded by construction: the failover protocol
// assumes control messages arrive within the silence timeout (DESIGN.md
// §7), so randomly dropping them tests the timeout tuning, not the
// protocol. `standby_replicas` is sized to the schedule's kill count, so
// a cascade can never outrun the decision log and every schedule must
// complete (an abort is a soak failure).
//
// Shared between tools/chaos_soak (CLI, CI seed sweeps) and
// tests/ft/chaos_soak_test.cpp (a fixed slice of the same seed space).
#pragma once

#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "ft/ft_engine.hpp"

namespace egt::ft {

/// One seed's worth of chaos: configuration, rank count and fault plan.
struct ChaosSchedule {
  core::SimConfig config;
  FtRunOptions options;
  int nranks = 0;
  std::string summary;  ///< one line: ranks, faults, for log output
};

/// Deterministically derive schedule `seed`.
ChaosSchedule make_chaos_schedule(std::uint64_t seed);

/// The soak verdict for one seed.
struct ChaosOutcome {
  bool ok = false;
  std::string detail;  ///< schedule summary, or what diverged
  int ranks_lost = 0;
  int failovers = 0;
};

/// Run schedule `seed` against the serial reference: the strategy table
/// and fitness must match bit for bit; the merged "engine.*" counters must
/// match whenever no false-positive eviction occurred (ranks_lost equals
/// the planned kills). Never throws — a thrown ft run is reported as a
/// failed outcome.
ChaosOutcome run_chaos_schedule(std::uint64_t seed);

}  // namespace egt::ft
