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
  c.state.begin = begin;
  c.state.end = end;
  c.state.cols = cols;
  c.state.values.resize((end - begin) * c.state.width());
  for (std::size_t i = 0; i < c.state.values.size(); ++i) {
    c.state.values[i] = 0.25 * static_cast<double>(i) - 3.0;
  }
  return c;
}

TEST(BlockCheckpoint, EncodeDecodeRoundTrip) {
  const auto c = sample();
  const auto back = BlockCheckpoint::decode(c.encode());
  EXPECT_EQ(back.config_fingerprint, c.config_fingerprint);
  EXPECT_EQ(back.generation, c.generation);
  EXPECT_EQ(back.table_hash, c.table_hash);
  EXPECT_EQ(back.state.begin, c.state.begin);
  EXPECT_EQ(back.state.end, c.state.end);
  EXPECT_EQ(back.state.cols, c.state.cols);
  EXPECT_EQ(back.state.values, c.state.values);
}

TEST(BlockCheckpoint, RejectsVersion2BlobWithDedupList) {
  // Older versions are refused by version, so ft recovery falls back to
  // recomputation. A v3 blob has the v4 bytes (v4 only re-expressed the
  // body as core::BlockFitness::State's encoding).
  auto v3 = sample().encode();
  const std::uint32_t three = 3;
  std::memcpy(v3.data() + 8, &three, sizeof three);  // magic is 8 bytes
  EXPECT_THROW((void)BlockCheckpoint::decode(v3), core::CheckpointError);
  // A v2 blob is the v3 layout plus a trailing dedup class-pair list
  // (u64 count, then u64 a, u64 b, f64 payoff per entry).
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
  EXPECT_EQ(back.state.cols, 0u);
  ASSERT_EQ(back.state.values.size(), 5u);  // the per-row fitness
  EXPECT_EQ(back.state.values, c.state.values);
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
  const auto s = c.state.slice(5, 7);
  EXPECT_EQ(s.begin, 5u);
  EXPECT_EQ(s.end, 7u);
  EXPECT_EQ(s.cols, 3u);
  ASSERT_EQ(s.values.size(), 6u);
  for (std::size_t i = 0; i < s.values.size(); ++i) {
    EXPECT_EQ(s.values[i], c.state.values[3 + i]);
  }
  const auto per_row = sample(4, 8, /*cols=*/0).state;
  const auto rows = per_row.slice(5, 7);
  ASSERT_EQ(rows.values.size(), 2u);  // one fitness value per row
  EXPECT_EQ(rows.values[0], per_row.values[1]);
  EXPECT_EQ(rows.values[1], per_row.values[2]);
  EXPECT_THROW((void)c.state.slice(3, 7), core::CheckpointError);
  EXPECT_THROW((void)c.state.slice(6, 5), core::CheckpointError);
}

TEST(CheckpointStore, FindCoveringChecksFreshness) {
  CheckpointStore store;
  const auto c = sample(4, 8, 6);
  store.put(2, c.state.begin, c.state.end, c.generation, c.encode());
  EXPECT_EQ(store.entries(), 1u);

  // Same table hash, no strategy change since the capture: hit.
  auto hit = store.find_covering(5, 7, c.table_hash, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->state.begin, 4u);

  // A checkpointed block's state moves only when a strategy changes: the
  // entry still hits however many generations later it is read, as long
  // as the last change (here in generation c.generation - 1) preceded its
  // capture — that is what makes torn-newest fallback possible.
  auto later = store.find_covering(5, 7, c.table_hash,
                                   /*unchanged_since=*/c.generation);
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(later->generation, c.generation);

  // Foreign table: miss.
  EXPECT_FALSE(store.find_covering(5, 7, c.table_hash ^ 1, 0).has_value());
  // Range not covered: miss.
  EXPECT_FALSE(store.find_covering(2, 7, c.table_hash, 0).has_value());
}

TEST(CheckpointStore, PerRowBlobsRestoreUntilAStrategyChanges) {
  // A block without a matrix (SampledFrozen public goods keeps per-row
  // fitness) follows the same freshness rule as a matrix block.
  CheckpointStore store;
  const auto c = sample(0, 5, /*cols=*/0);
  store.put(1, 0, 5, c.generation, c.encode());
  EXPECT_TRUE(store.find_covering(0, 5, c.table_hash,
                                  /*unchanged_since=*/c.generation));
  EXPECT_FALSE(store.find_covering(0, 5, c.table_hash,
                                   /*unchanged_since=*/c.generation + 1));
}

TEST(CheckpointStore, RetainsNewestGenerationsPerRange) {
  CheckpointStore store(/*keep=*/2);
  auto c = sample(0, 4, /*cols=*/0);
  for (std::uint64_t gen : {5u, 10u, 15u}) {
    c.generation = gen;
    store.put(1, 0, 4, gen, c.encode());
  }
  EXPECT_EQ(store.entries(), 2u);
  const auto newest = store.find_covering(0, 4, c.table_hash, 0);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->generation, 15u);

  // A resend of the same generation replaces its twin, never duplicates:
  // a torn resend of 15 leaves 10 to fall back to, and with 10 torn too
  // nothing is left, since 5 was pruned.
  store.put(1, 0, 4, 15, c.encode(), /*torn=*/true);
  EXPECT_EQ(store.entries(), 2u);
  const auto fallback = store.find_covering(0, 4, c.table_hash, 0);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->generation, 10u);
  store.put(1, 0, 4, 10, c.encode(), /*torn=*/true);
  EXPECT_FALSE(store.find_covering(0, 4, c.table_hash, 0).has_value());
}

TEST(CheckpointStore, CorruptEntriesAreSkippedNotFatal) {
  CheckpointStore store;
  const auto good = sample(0, 8, 4);
  auto corrupt = good.encode();
  corrupt.resize(corrupt.size() / 2);
  store.put(1, 0, 8, good.generation, corrupt);  // rank 1's blob is damaged
  store.put(2, 0, 8, good.generation, good.encode());  // rank 2's is fine
  const auto hit = store.find_covering(0, 8, good.table_hash, 0);
  ASSERT_TRUE(hit.has_value()) << "damaged entry must not mask the good one";
  EXPECT_EQ(hit->state.values, good.state.values);
}

TEST(CheckpointStore, TornNewestFallsBackToOlderIntactGeneration) {
  CheckpointStore store;
  auto c = sample(0, 8, 4);
  c.generation = 10;
  store.put(1, 0, 8, 10, c.encode());
  c.generation = 20;
  store.put(1, 0, 8, 20, c.encode(), /*torn=*/true);

  // No strategy changed after generation 9, so generation 10's entry
  // still holds the block's state.
  int corrupt_calls = 0;
  const auto hit = store.find_covering(
      0, 8, c.table_hash, /*unchanged_since=*/10,
      [&](const std::string& why) {
        ++corrupt_calls;
        EXPECT_FALSE(why.empty());
      });
  ASSERT_TRUE(hit.has_value()) << "torn newest must degrade, not fail";
  EXPECT_EQ(hit->generation, 10u);
  EXPECT_EQ(corrupt_calls, 1);
}

TEST(CheckpointStore, OlderEntryWithALaterChangeIsRefused) {
  // An A→B→A change after generation 10's capture restores the table hash
  // but not the block's state (the frozen samples, SampledFrozen's or an
  // Analytic fall-through pair's, carry other generation keys): the older
  // same-hash entry must be refused, and the caller recomputes.
  CheckpointStore store;
  auto c = sample(0, 8, 4);
  c.generation = 10;
  store.put(1, 0, 8, 10, c.encode());
  c.generation = 20;
  store.put(1, 0, 8, 20, c.encode(), /*torn=*/true);
  int corrupt_calls = 0;
  EXPECT_FALSE(store
                   .find_covering(0, 8, c.table_hash, /*unchanged_since=*/15,
                                  [&](const std::string&) { ++corrupt_calls; })
                   .has_value());
  EXPECT_EQ(corrupt_calls, 1);
  // A change right after the capture refuses it too.
  EXPECT_FALSE(
      store.find_covering(0, 8, c.table_hash, /*unchanged_since=*/11)
          .has_value());
  EXPECT_TRUE(
      store.find_covering(0, 8, c.table_hash, /*unchanged_since=*/10)
          .has_value());
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
