// Differential test cases: one CaseSpec describes a config plus the set of
// engine variants to run it through; run_case executes every variant and
// compares each against the serial reference engine — strategy table,
// final fitness vector, per-generation trace, and merged "engine.*"
// counters must all agree bit-for-bit (where the variant makes them
// comparable). sample_case draws a valid spec from a fuzz seed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "core/generation.hpp"
#include "core/trace.hpp"
#include "ft/fault_plan.hpp"

namespace egt::simcheck {

/// The execution paths the harness can differentially compare.
enum class EngineKind {
  Serial,              ///< core::Engine — the reference
  SerialThreads,       ///< serial engine with the fitness thread pool
  SerialRestore,       ///< serial run split by a checkpoint/restore
  Parallel,            ///< core::run_parallel, PaperBcast
  ParallelReplicated,  ///< core::run_parallel, ReplicatedNature
  ParallelFt,          ///< ft::run_parallel_ft, fault-free
  ParallelFtFaulty,    ///< ft::run_parallel_ft with the spec's fault plan
  SerialBrokenDedup,   ///< self-test fixture: deliberately broken dedup copy
};

const char* engine_kind_name(EngineKind kind);
std::optional<EngineKind> engine_kind_from_name(const std::string& name);

struct CaseSpec {
  std::uint64_t case_seed = 0;  ///< the fuzz seed that produced this spec
  core::SimConfig config;       ///< threads forced to 0 for the reference
  int nranks = 2;               ///< rank count of the parallel variants
  unsigned threads = 0;         ///< SerialThreads: config.threads
  std::uint64_t restore_at = 0;          ///< SerialRestore: split generation
  std::uint64_t ft_checkpoint_every = 0;  ///< ft variants
  std::vector<ft::KillFault> kills;       ///< ParallelFtFaulty
  std::vector<ft::TornCheckpointFault> torn;
  std::vector<EngineKind> engines;  ///< variants to compare (no Serial)
};

struct EngineOutcome {
  bool ok = false;    ///< ran to completion without throwing
  std::string error;  ///< exception text when !ok
  std::uint64_t table_hash = 0;
  std::vector<double> fitness;  ///< final (top-of-last-generation) fitness
  core::EngineCounters counters;
  /// Counters are only diffed when the variant makes them meaningful: ft
  /// recovery off the checkpoint fast path recomputes (extra games).
  bool counters_comparable = true;
  std::vector<core::TracePoint> trace;
};

struct CaseFailure {
  EngineKind engine = EngineKind::Serial;
  std::string what;  ///< human-readable mismatch description
};

struct CaseResult {
  CaseSpec spec;
  EngineOutcome reference;
  std::vector<std::pair<EngineKind, EngineOutcome>> outcomes;
  std::vector<CaseFailure> failures;
  bool passed() const noexcept { return failures.empty(); }
};

/// Draw a valid spec from a fuzz seed (deterministic).
CaseSpec sample_case(std::uint64_t fuzz_seed);

/// Clamp a (possibly shrunk) spec back onto the valid-config manifold:
/// rank counts, restore points, fault generations and engine list are made
/// consistent with the config. Returns false when no valid form exists.
bool normalize_spec(CaseSpec& spec);

/// Run the reference and every listed variant; compare.
CaseResult run_case(const CaseSpec& spec);

/// The history-free oracle: which SSet's fitness differs from a fresh block
/// (playing every pair where all have a closed form, else re-summing the
/// engine's state, since stream values are history by design), or empty.
std::string fresh_fitness_mismatch(const core::Engine& engine);

}  // namespace egt::simcheck
