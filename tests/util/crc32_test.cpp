#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace egt::util {
namespace {

/// The textbook one-byte-at-a-time CRC-32 (reflected 0xEDB88320), kept
/// independent of the header's tables.
std::uint32_t bytewise_crc32(const unsigned char* p, std::size_t n,
                             std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng() >> 56);
  return out;
}

TEST(Crc32, CheckValue) {
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(crc32(kCheck.data(), kCheck.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, SeedChainingOverSplitSpansEqualsOneShot) {
  const auto data = random_bytes(1000, 1);
  const std::uint32_t whole = crc32(data.data(), data.size());
  for (std::size_t a = 0; a <= data.size(); a += 37) {
    for (std::size_t b = a; b <= data.size(); b += 91) {
      std::uint32_t c = crc32(data.data(), a);
      c = crc32(data.data() + a, b - a, c);
      c = crc32(data.data() + b, data.size() - b, c);
      ASSERT_EQ(c, whole) << "split at " << a << ", " << b;
    }
  }
}

TEST(Crc32, SlicedPathMatchesBytewiseAtEveryLengthAndAlignment) {
  // 8 bytes of headroom so every start alignment has 257 bytes after it.
  const auto data = random_bytes(257 + 8, 2);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const unsigned char* p = data.data() + align;
      ASSERT_EQ(crc32(p, len), bytewise_crc32(p, len))
          << "align " << align << " len " << len;
      ASSERT_EQ(crc32(p, len, 0x12345678u),
                bytewise_crc32(p, len, 0x12345678u))
          << "seeded, align " << align << " len " << len;
    }
  }
}

}  // namespace
}  // namespace egt::util
