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

/// Test/bench hook: force the scalar kernel (true) or return to runtime
/// detection (false). Flipping this mid-simulation breaks the
/// one-kernel-per-process invariant — only toggle between full runs.
void set_force_scalar(bool force) noexcept;

/// Current force-scalar state (env EGT_FORCE_SCALAR=1 sets it at startup).
bool force_scalar() noexcept;

}  // namespace egt::game::simd
