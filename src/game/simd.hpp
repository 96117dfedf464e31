// Runtime kernel dispatch for the batch fitness kernels (DESIGN.md §12).
//
// The batch memory-one Markov kernel (game/batch.hpp) has two
// implementations: a portable scalar loop and an AVX2+FMA lane kernel
// compiled into its own translation unit with -mavx2 -mfma. Which one runs
// is resolved once per process:
//
//   * compile gate  — -DEGT_SIMD=OFF (CMake) removes the AVX2 TU entirely;
//   * runtime gate  — the AVX2 kernel only runs when the CPU reports AVX2
//     and FMA support (__builtin_cpu_supports), scalar otherwise;
//   * env/test gate — EGT_FORCE_SCALAR=1 in the environment, or
//     set_force_scalar(true) from test code, forces the scalar path.
//
// Under the AVX2 kernel, the payoff-only memory-one kernel (the fitness
// tier's, game/mem1_lanes.hpp) and the fused sampled kernel
// (game/stream_lanes.hpp) also have a width: 16 pairs or games in flight
// when the CPU reports AVX-512F and AVX-512DQ, 8 otherwise (mem1_lanes(),
// stream_lanes()); 1 under the scalar kernel. The widths are bitwise equal
// to each other (and to the AVX2 totals kernel's payoff, or to the
// IpdEngine round loop), so the width is not a numeric choice and has no
// gate of its own.
//
// One kernel per process: every analytic memory-one evaluation in a process
// goes through the same kernel (batches of one included), so in-process
// bitwise invariants (dedup on/off, serial vs threaded, copied vs
// evaluated rows) hold under either kernel. Results *across* kernels agree to 1e-12
// relative (FMA contraction and lane arithmetic reorder rounding), the same
// tolerance simcheck already applies to Analytic restores — which is why
// set_force_scalar is a test/bench hook, not something to flip mid-run.
#pragma once

namespace egt::game::simd {

enum class Kernel { Scalar, Avx2 };

/// The kernel the batch entry points dispatch to right now.
Kernel active_kernel() noexcept;

/// "scalar" / "avx2".
const char* kernel_name(Kernel k) noexcept;

/// True when the AVX2 TU was compiled in (-DEGT_SIMD=ON on x86-64).
bool compiled_with_avx2() noexcept;

/// True when the CPU supports the AVX2 kernel (regardless of the gates).
bool cpu_supports_avx2() noexcept;

/// True when the CPU supports AVX-512F and AVX-512DQ (regardless of the
/// gates): the sampled kernel's AVX-512 width needs DQ's 64-bit multiply
/// and u64 -> double convert, and both kernels share this one probe. The
/// AVX-512 widths are compiled in with the AVX2 TU.
bool cpu_supports_avx512() noexcept;

/// Pairs the memory-one payoff kernel keeps in flight right now: 16 (two
/// AVX-512 groups), 8 (two AVX2 groups) or 1 (the scalar kernel). The
/// CPU probe runs on the first call, not at start-up.
int mem1_lanes() noexcept;

/// Games the sampled lane kernel keeps in flight right now: 16 (two
/// AVX-512 groups), 8 (two AVX2 groups) or 1 (the scalar width, eight
/// games interleaved at one lane each). The CPU probe runs on the first
/// call, not at start-up; EGT_FORCE_SCALAR gives 1.
int stream_lanes() noexcept;

/// Test/bench hook: force the scalar kernel (true) or return to runtime
/// detection (false). Flipping this mid-simulation breaks the
/// one-kernel-per-process invariant — only toggle between full runs.
void set_force_scalar(bool force) noexcept;

/// Current force-scalar state (env EGT_FORCE_SCALAR=1 sets it at startup).
bool force_scalar() noexcept;

}  // namespace egt::game::simd
