#include "game/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace egt::game::simd {

namespace {

bool env_force_scalar() {
  const char* v = std::getenv("EGT_FORCE_SCALAR");
  return v != nullptr && std::strcmp(v, "0") != 0 &&
         std::strcmp(v, "") != 0;
}

std::atomic<bool>& force_flag() {
  static std::atomic<bool> flag{env_force_scalar()};
  return flag;
}

}  // namespace

bool compiled_with_avx2() noexcept {
#if defined(EGT_SIMD_AVX2)
  return true;
#else
  return false;
#endif
}

bool cpu_supports_avx2() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

bool cpu_supports_avx512() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  static const bool ok = __builtin_cpu_supports("avx512f");
  return ok;
#else
  return false;
#endif
}

int mem1_lanes() noexcept {
  if (active_kernel() == Kernel::Scalar) return 1;
  static const int wide = cpu_supports_avx512() ? 16 : 8;
  return wide;
}

Kernel active_kernel() noexcept {
  if (force_flag().load(std::memory_order_relaxed)) return Kernel::Scalar;
  if (compiled_with_avx2() && cpu_supports_avx2()) return Kernel::Avx2;
  return Kernel::Scalar;
}

const char* kernel_name(Kernel k) noexcept {
  return k == Kernel::Avx2 ? "avx2" : "scalar";
}

void set_force_scalar(bool force) noexcept {
  force_flag().store(force, std::memory_order_relaxed);
}

bool force_scalar() noexcept {
  return force_flag().load(std::memory_order_relaxed);
}

}  // namespace egt::game::simd
