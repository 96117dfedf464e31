#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <vector>

namespace egt::util {
namespace {

TEST(Mix64, IsDeterministic) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
}

TEST(Mix64, IsBijectiveOnSamples) {
  // mix64 is a bijection (0 maps to 0 — callers offset their seeds);
  // distinct inputs must stay distinct.
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Mix64, AvalanchesSingleBitFlips) {
  // Flipping one input bit should flip roughly half the output bits.
  const std::uint64_t a = mix64(0x1234567890abcdefULL);
  const std::uint64_t b = mix64(0x1234567890abcdeeULL);
  const int flipped = std::popcount(a ^ b);
  EXPECT_GT(flipped, 16);
  EXPECT_LT(flipped, 48);
}

TEST(SplitMix64, ProducesKnownDistinctValues) {
  SplitMix64 a(1), b(1), c(2);
  const auto va = a();
  EXPECT_EQ(va, b());
  EXPECT_NE(va, c());
}

TEST(Xoshiro256, DifferentSeedsDiffer) {
  Xoshiro256 a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Xoshiro256, ReproducibleForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Xoshiro256, LongJumpDecorrelates) {
  Xoshiro256 a(5);
  Xoshiro256 b(5);
  b.long_jump();
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(StreamRng, DrawDependsOnlyOnSeedKeyCounter) {
  StreamRng a(9, 100);
  StreamRng b(9, 100);
  // Interleave unrelated draws elsewhere; stream values must match draw by
  // draw regardless.
  StreamRng noise(1, 2);
  (void)noise();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(StreamRng, DifferentKeysAreIndependent) {
  StreamRng a(9, 100), b(9, 101);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(StreamRng, CounterCountsDraws) {
  StreamRng r(1, 1);
  EXPECT_EQ(r.counter(), 0u);
  (void)r();
  (void)r();
  EXPECT_EQ(r.counter(), 2u);
}

// Batch kernels read a stream without walking it: at(origin(), k) must be
// the k-th value the generator returns from its current position.
TEST(StreamRng, OriginPredictsUpcomingDraws) {
  StreamRng r(11, 22);
  for (int skip = 0; skip < 3; ++skip) (void)r();
  const std::uint64_t origin = r.origin();
  for (std::uint64_t k = 1; k <= 64; ++k) {
    EXPECT_EQ(StreamRng::at(origin, k), r()) << "k=" << k;
  }
}

TEST(StreamKey, SensitiveToEachComponent) {
  const auto base = stream_key(1, 2, 3);
  EXPECT_NE(base, stream_key(2, 2, 3));
  EXPECT_NE(base, stream_key(1, 3, 3));
  EXPECT_NE(base, stream_key(1, 2, 4));
}

TEST(StreamKey, OrderMatters) {
  EXPECT_NE(stream_key(1, 2), stream_key(2, 1));
}

TEST(ToUnitDouble, RangeIsHalfOpen) {
  EXPECT_GE(to_unit_double(0), 0.0);
  EXPECT_LT(to_unit_double(~0ULL), 1.0);
}

TEST(Uniform01, WithinRangeAndRoughlyUniform) {
  Xoshiro256 rng(3);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double u = uniform01(rng);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(UniformBelow, NeverReachesBound) {
  Xoshiro256 rng(4);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(uniform_below(rng, 7), 7u);
  }
}

TEST(UniformBelow, CoversAllValues) {
  Xoshiro256 rng(4);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(uniform_below(rng, 5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(UniformBelow, IsUnbiased) {
  Xoshiro256 rng(11);
  std::vector<int> counts(3, 0);
  constexpr int kN = 90000;
  for (int i = 0; i < kN; ++i) {
    ++counts[uniform_below(rng, 3)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kN, 1.0 / 3.0, 0.01);
  }
}

TEST(Bernoulli, EdgeProbabilities) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(bernoulli(rng, 0.0));
    EXPECT_TRUE(bernoulli(rng, 1.0));
  }
}

TEST(Bernoulli, MatchesProbability) {
  Xoshiro256 rng(6);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (bernoulli(rng, 0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

}  // namespace
}  // namespace egt::util
