// Decision-point tracing: the hook the simcheck harness (src/simcheck/)
// uses to compare *whole trajectories* across engines instead of only
// final states.
//
// The shared generation step (core/generation.hpp) emits one TracePoint
// per completed generation on the recording rank — the serial Engine,
// run_parallel's rank 0, run_parallel_ft's acting master: Nature's
// post-decision RNG state, the generation's decision, and a content hash
// of the strategy table. Two engines given the same config must produce
// byte-identical point streams; the first differing point names the
// generation where a divergence was introduced — which turns "final table
// hash differs after 60 generations" into "adoption decision flipped at
// generation 12".
//
// The point layout deliberately mirrors the ft decision log
// (ft/decision_log.hpp): both snapshot the global tier after one
// generation, and the simcheck trace wire format reuses the same
// core::wire conventions.
#pragma once

#include <cstdint>
#include <span>

#include "pop/nature.hpp"
#include "util/rng.hpp"

namespace egt::core {

/// One generation's decision-point snapshot.
struct TracePoint {
  std::uint64_t generation = 0;
  /// Nature's state AFTER planning (and deciding) this generation — the
  /// same capture point as the ft decision log's record.
  pop::NatureAgent::State nature{};
  bool pc = false;
  std::uint32_t teacher = 0;
  std::uint32_t learner = 0;
  bool adopted = false;
  bool moran = false;
  std::uint32_t reproducer = 0;
  std::uint32_t dying = 0;
  bool mutated = false;
  std::uint32_t mutation_target = 0;
  /// pop::Population::table_hash after the generation's events applied.
  std::uint64_t table_hash = 0;
  /// Bit-sensitive hash of the population's top-of-generation fitness
  /// vector, or 0 when the recorder only owns a block of it (parallel
  /// ranks): compared only when both sides recorded it.
  std::uint64_t fitness_hash = 0;

  bool operator==(const TracePoint&) const = default;
};

/// Receiver of per-generation trace points. Implementations must tolerate
/// being called from whichever thread drives the recording engine (the ft
/// master role can migrate across rank threads on failover).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_point(const TracePoint& point) = 0;
};

/// Order- and bit-sensitive hash of a fitness vector (chained mix64 over
/// the IEEE-754 bit patterns; NaN-free by construction of the engines).
inline std::uint64_t hash_fitness(std::span<const double> fitness) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const double v : fitness) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    h = util::mix64(h ^ bits);
  }
  return h;
}

}  // namespace egt::core
