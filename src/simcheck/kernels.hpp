// Kernel cross-validation (DESIGN.md §12 tolerance policy): fuzz the batch
// fitness kernels against their references.
//
//  * Mem1 batch: random memory-one pair batches (mixed + pure, with and
//    without noise, remainder-lane sizes included) — the AVX2 lane kernel
//    must agree with the scalar reference to 1e-12 relative, and the
//    scalar reference must be bit-identical to markov::expected_game_mem1.
//  * Mem1 payoff kernel: batches of 0-40 pairs at every width the build
//    and CPU have (1, 8, 16 pairs in flight) — bit-identical to the
//    payoff_a of the totals kernel it mirrors, and each pair alone to the
//    same pair inside the batch.
//  * Pure walker: random deterministic pure pairs across memory depths —
//    batch::exact_pure_game_fast must be bit-identical to
//    markov::exact_pure_game, and batch::run_pure_game to the legacy
//    round loop.
//  * Sampled lane kernel: random pure/mixed batches of 1-17 games across
//    memory 0-6, noise {0, 0.02, 0.5, 1} and round counts around the
//    64-round pre-draw block — batch::play_stream_games must be
//    bit-identical to the LinearSearch round loop under the active and
//    the forced-scalar pre-draw, and the AVX2 pre-draw to its scalar twin.
//
// Exposed as `simcheck --kernels`; runs whatever kernels this build/CPU
// provides (the AVX2 half is skipped, not failed, on scalar-only builds).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace egt::simcheck {

struct KernelCheck {
  std::string name;
  bool passed = false;
  std::uint64_t cases = 0;      ///< pairs compared
  double worst_rel = 0.0;       ///< worst relative error observed
  std::string detail;           ///< first failure, or summary
};

struct KernelReport {
  std::vector<KernelCheck> checks;
  bool avx2_available = false;  ///< compiled in and CPU-supported
  bool avx512_available = false;  ///< AVX2 available and CPU has AVX-512F
  bool passed() const noexcept {
    for (const auto& c : checks) {
      if (!c.passed) return false;
    }
    return true;
  }
};

/// Run the full kernel cross-validation suite (deterministic for a seed).
KernelReport run_kernel_checks(std::uint64_t seed);

}  // namespace egt::simcheck
