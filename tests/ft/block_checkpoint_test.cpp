// Block-checkpoint blob hardening and the CheckpointStore freshness
// contract. The negative tests are the ASan/UBSan canaries: a hostile blob
// must throw CheckpointError, never read out of bounds.
#include <gtest/gtest.h>

#include <cstring>

#include "core/checkpoint_store.hpp"
#include "core/wire.hpp"
#include "ft/block_checkpoint.hpp"

namespace egt::ft {
namespace {

BlockCheckpoint sample(pop::SSetId begin = 4, pop::SSetId end = 8,
                       std::uint32_t cols = 6) {
  BlockCheckpoint c;
  c.config_fingerprint = 0xfeedbeef;
  c.generation = 12;
  c.table_hash = 0xabcdef;
  c.begin = begin;
  c.end = end;
  c.matrix_cols = cols;
  for (pop::SSetId i = begin; i < end; ++i) {
    c.fitness.push_back(0.5 * i);
  }
  c.matrix.resize(static_cast<std::size_t>(end - begin) * cols);
  for (std::size_t i = 0; i < c.matrix.size(); ++i) {
    c.matrix[i] = 0.25 * static_cast<double>(i) - 3.0;
  }
  return c;
}

TEST(BlockCheckpoint, EncodeDecodeRoundTrip) {
  const auto c = sample();
  const auto back = BlockCheckpoint::decode(c.encode());
  EXPECT_EQ(back.config_fingerprint, c.config_fingerprint);
  EXPECT_EQ(back.generation, c.generation);
  EXPECT_EQ(back.table_hash, c.table_hash);
  EXPECT_EQ(back.begin, c.begin);
  EXPECT_EQ(back.end, c.end);
  EXPECT_EQ(back.matrix_cols, c.matrix_cols);
  EXPECT_EQ(back.fitness, c.fitness);
  EXPECT_EQ(back.matrix, c.matrix);
}

TEST(BlockCheckpoint, RejectsVersion2BlobWithDedupList) {
  // A v2 blob is the v3 layout plus a trailing dedup class-pair list
  // (u64 count, then u64 a, u64 b, f64 payoff per entry). The decoder must
  // refuse it by version, so ft recovery falls back to recomputation.
  auto blob = sample().encode();
  core::wire::Writer tail;
  tail.u64(1);
  tail.u64(0x1111);
  tail.u64(0x2222);
  tail.f64(2.5);
  const auto extra = tail.take();
  blob.insert(blob.end(), extra.begin(), extra.end());
  const std::uint32_t v2 = 2;
  std::memcpy(blob.data() + 8, &v2, sizeof v2);  // magic is 8 bytes
  try {
    (void)BlockCheckpoint::decode(blob);
    FAIL() << "expected CheckpointError";
  } catch (const core::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 2"), std::string::npos) << what;
  }
}

TEST(BlockCheckpoint, SampledModeHasNoMatrix) {
  const auto c = sample(0, 5, /*cols=*/0);
  const auto back = BlockCheckpoint::decode(c.encode());
  EXPECT_EQ(back.matrix_cols, 0u);
  EXPECT_TRUE(back.matrix.empty());
  EXPECT_EQ(back.fitness, c.fitness);
}

TEST(BlockCheckpoint, RejectsTruncationAtEveryLength) {
  const auto blob = sample().encode();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    std::vector<std::byte> cut(blob.begin(),
                               blob.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)BlockCheckpoint::decode(cut), core::CheckpointError)
        << "truncated to " << len << " of " << blob.size() << " bytes";
  }
}

TEST(BlockCheckpoint, EveryBitFlipOfAStoredBlobIsRejected) {
  // The CRC footer the store appends catches any single-bit flip, in the
  // payload or in the footer itself.
  auto stored = sample().encode();
  core::append_crc_footer(stored);
  for (std::size_t i = 0; i < stored.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = stored;
      flipped[i] ^= std::byte{static_cast<unsigned char>(1u << bit)};
      EXPECT_THROW(
          (void)BlockCheckpoint::decode(core::checked_payload(flipped)),
          core::CheckpointError)
          << "flip of bit " << bit << " in byte " << i;
    }
  }
}

TEST(BlockCheckpoint, RejectsBadMagic) {
  auto blob = sample().encode();
  blob[0] = std::byte{0x00};
  EXPECT_THROW((void)BlockCheckpoint::decode(blob), core::CheckpointError);
}

TEST(BlockCheckpoint, RejectsUnsupportedVersionWithClearMessage) {
  auto blob = sample().encode();
  const std::uint32_t bogus = kBlockCheckpointVersion + 41;
  std::memcpy(blob.data() + 8, &bogus, sizeof bogus);  // magic is 8 bytes
  try {
    (void)BlockCheckpoint::decode(blob);
    FAIL() << "expected CheckpointError";
  } catch (const core::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos) << what;
  }
}

TEST(BlockCheckpoint, RejectsTrailingBytes) {
  auto blob = sample().encode();
  blob.push_back(std::byte{0x7f});
  EXPECT_THROW((void)BlockCheckpoint::decode(blob), core::CheckpointError);
}

TEST(BlockCheckpoint, RejectsInvertedRange) {
  // encode() refuses an inverted range, so forge one in the bytes: the
  // begin/end fields sit after magic(8) + version(4) + three u64 headers.
  auto blob = sample().encode();
  const std::uint32_t begin = 9, end = 4;
  std::memcpy(blob.data() + 36, &begin, sizeof begin);
  std::memcpy(blob.data() + 40, &end, sizeof end);
  EXPECT_THROW((void)BlockCheckpoint::decode(blob), core::CheckpointError);
}

TEST(BlockCheckpoint, SlicesExtractSubRanges) {
  const auto c = sample(4, 8, 3);
  EXPECT_TRUE(c.covers(5, 7));
  EXPECT_FALSE(c.covers(3, 7));
  const auto f = c.fitness_slice(5, 7);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_DOUBLE_EQ(f[0], c.fitness[1]);
  EXPECT_DOUBLE_EQ(f[1], c.fitness[2]);
  const auto m = c.matrix_slice(5, 7);
  ASSERT_EQ(m.size(), 6u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_DOUBLE_EQ(m[i], c.matrix[3 + i]);
  }
}

TEST(CheckpointStore, FindCoveringChecksFreshness) {
  CheckpointStore store;
  const auto c = sample(4, 8, 6);
  store.put(2, c.begin, c.end, c.generation, c.encode());
  EXPECT_EQ(store.entries(), 1u);

  // Exact generation + table hash: hit.
  auto hit = store.find_covering(5, 7, c.generation, c.table_hash);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->begin, 4u);

  // Cached fitness (matrix_cols > 0) is a pure function of the strategy
  // table: an older generation with the same table hash is still bit-exact,
  // so it hits — that is what makes torn-newest fallback possible.
  auto older = store.find_covering(5, 7, c.generation + 3, c.table_hash);
  ASSERT_TRUE(older.has_value());
  EXPECT_EQ(older->generation, c.generation);

  // Foreign table: miss.
  EXPECT_FALSE(
      store.find_covering(5, 7, c.generation, c.table_hash ^ 1).has_value());
  // Range not covered: miss.
  EXPECT_FALSE(
      store.find_covering(2, 7, c.generation, c.table_hash).has_value());
}

TEST(CheckpointStore, SampledBlobsRequireExactGeneration) {
  CheckpointStore store;
  const auto c = sample(0, 5, /*cols=*/0);
  store.put(1, 0, 5, c.generation, c.encode());
  // Sampled fitness depends on the generation's RNG draws: only the exact
  // generation restores bit-exactly.
  EXPECT_TRUE(store.find_covering(0, 5, c.generation, c.table_hash));
  EXPECT_FALSE(store.find_covering(0, 5, c.generation + 1, c.table_hash));
}

TEST(CheckpointStore, RetainsNewestGenerationsPerRange) {
  CheckpointStore store(/*keep=*/2);
  auto c = sample(0, 4, /*cols=*/0);
  for (std::uint64_t gen : {5u, 10u, 15u}) {
    c.generation = gen;
    store.put(1, 0, 4, gen, c.encode());
  }
  EXPECT_EQ(store.entries(), 2u);
  EXPECT_FALSE(store.find_covering(0, 4, 5, c.table_hash).has_value());
  EXPECT_TRUE(store.find_covering(0, 4, 10, c.table_hash).has_value());
  EXPECT_TRUE(store.find_covering(0, 4, 15, c.table_hash).has_value());

  // A resend of the same generation replaces its twin, never duplicates.
  store.put(1, 0, 4, 15, c.encode());
  EXPECT_EQ(store.entries(), 2u);
}

TEST(CheckpointStore, CorruptEntriesAreSkippedNotFatal) {
  CheckpointStore store;
  const auto good = sample(0, 8, 4);
  auto corrupt = good.encode();
  corrupt.resize(corrupt.size() / 2);
  store.put(1, 0, 8, good.generation, corrupt);  // rank 1's blob is damaged
  store.put(2, 0, 8, good.generation, good.encode());  // rank 2's is fine
  const auto hit =
      store.find_covering(0, 8, good.generation, good.table_hash);
  ASSERT_TRUE(hit.has_value()) << "damaged entry must not mask the good one";
  EXPECT_EQ(hit->fitness, good.fitness);
}

TEST(CheckpointStore, TornNewestFallsBackToOlderIntactGeneration) {
  CheckpointStore store;
  auto c = sample(0, 8, 4);
  c.generation = 10;
  store.put(1, 0, 8, 10, c.encode());
  c.generation = 20;
  store.put(1, 0, 8, 20, c.encode(), /*torn=*/true);

  int corrupt_calls = 0;
  const auto hit = store.find_covering(
      0, 8, 20, c.table_hash,
      [&](const std::string& why) {
        ++corrupt_calls;
        EXPECT_FALSE(why.empty());
      });
  ASSERT_TRUE(hit.has_value()) << "torn newest must degrade, not fail";
  EXPECT_EQ(hit->generation, 10u);
  EXPECT_EQ(corrupt_calls, 1);
}

TEST(CheckpointStore, TracksTotalBytesIncludingCrcFooters) {
  CheckpointStore store;
  const auto blob = sample().encode();
  const std::uint64_t stored = blob.size() + core::kCrcFooterBytes;
  store.put(1, 4, 8, 12, blob);
  EXPECT_EQ(store.total_bytes(), stored);
  store.put(2, 8, 12, 12, blob);
  EXPECT_EQ(store.total_bytes(), 2 * stored);
}

}  // namespace
}  // namespace egt::ft
