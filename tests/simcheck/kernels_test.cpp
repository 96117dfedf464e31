#include "simcheck/kernels.hpp"

#include <gtest/gtest.h>

#include "game/simd.hpp"

namespace egt::simcheck {
namespace {

TEST(KernelChecks, FullSuitePasses) {
  const KernelReport report = run_kernel_checks(20120427);
  // Five checks, plus one payoff-kernel and one sampled-kernel check per
  // width this build and CPU have: scalar always, 8 with AVX2, 16 with
  // AVX-512 too.
  const std::size_t widths = 1 + (report.avx2_available ? 1 : 0) +
                             (report.avx512_available ? 1 : 0);
  ASSERT_EQ(report.checks.size(), 5u + 2 * widths);
  for (const auto& c : report.checks) {
    EXPECT_TRUE(c.passed) << c.name << ": " << c.detail;
    // The cross-kernel check runs zero cases when the AVX2 kernel is
    // compiled out or the CPU lacks it; every other check always runs.
    if (c.name == "mem1.avx2_vs_scalar" && !report.avx2_available) continue;
    EXPECT_GT(c.cases, 0u) << c.name;
  }
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.avx2_available, game::simd::compiled_with_avx2() &&
                                       game::simd::cpu_supports_avx2());
  EXPECT_EQ(report.avx512_available,
            report.avx2_available && game::simd::cpu_supports_avx512());
}

TEST(KernelChecks, DeterministicForASeed) {
  const KernelReport a = run_kernel_checks(7);
  const KernelReport b = run_kernel_checks(7);
  ASSERT_EQ(a.checks.size(), b.checks.size());
  for (std::size_t i = 0; i < a.checks.size(); ++i) {
    EXPECT_EQ(a.checks[i].cases, b.checks[i].cases);
    EXPECT_EQ(a.checks[i].worst_rel, b.checks[i].worst_rel);
  }
}

}  // namespace
}  // namespace egt::simcheck
