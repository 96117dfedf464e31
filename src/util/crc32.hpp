// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte spans.
//
// The integrity primitive of the crash-consistent checkpoint store
// (core/checkpoint_store.hpp), the ft block checkpoints and the egtd
// journal: every committed blob carries a CRC footer so a torn or
// bit-flipped write is *detected* on load instead of silently feeding
// garbage state into recovery. The ft engine checksums every rank's
// multi-megabyte block checkpoint while the run waits, so the kernel is
// slicing-by-8 (eight table lookups per 8-byte step, no data-dependent
// chain between the bytes of a step); it computes exactly the bytewise
// table values, so every footer written by either form verifies under the
// other. Dependency-free, keeping the container constraint (no new
// libraries) trivially satisfied.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace egt::util {

namespace detail {
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the bytewise table; tables[s][b] is the CRC of byte b
/// followed by s zero bytes, so one step folds 8 bytes at once.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}
inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Little-endian 32-bit load, independent of host byte order.
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace detail

/// Incremental form: pass the previous return value as `seed` to extend a
/// checksum over multiple spans. The default seed starts a fresh CRC.
inline std::uint32_t crc32(const void* data, std::size_t size,
                           std::uint32_t seed = 0) {
  const auto& t = detail::kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = c ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace egt::util
