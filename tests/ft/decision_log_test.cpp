// The egt.ft_declog/v1 record and the standby-side log. The negative
// decode tests are ASan/UBSan canaries: a hostile or truncated blob must
// throw CheckpointError, never read out of bounds.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "core/wire.hpp"
#include "ft/decision_log.hpp"

namespace egt::ft {
namespace {

DecisionLogRecord sample(std::uint64_t gen) {
  DecisionLogRecord rec;
  rec.view = 3;
  rec.decision.gen = gen;
  for (std::size_t i = 0; i < rec.nature.rng.size(); ++i) {
    rec.nature.rng[i] = 0x9e3779b97f4a7c15ull * (i + 1) + gen;
  }
  rec.nature.planned = gen + 1;
  rec.decision.adopted = true;
  rec.decision.has_moran = (gen % 2) == 0;
  rec.decision.pick.reproducer = 5;
  rec.decision.pick.dying = 9;
  rec.epoch = 7;
  rec.table = OwnershipTable::initial(12, 3);
  rec.alive = {0, 2, 3};
  rec.table_hash = 0xdeadbeefcafef00dull;
  return rec;
}

TEST(DecisionLogRecord, EncodeDecodeRoundTrip) {
  const auto rec = sample(41);
  const auto back = DecisionLogRecord::decode_blob(rec.encode_blob());
  EXPECT_EQ(back.view, rec.view);
  EXPECT_EQ(back.decision.gen, rec.decision.gen);
  EXPECT_EQ(back.nature.rng, rec.nature.rng);
  EXPECT_EQ(back.nature.planned, rec.nature.planned);
  EXPECT_EQ(back.decision.adopted, rec.decision.adopted);
  EXPECT_EQ(back.decision.has_moran, rec.decision.has_moran);
  EXPECT_EQ(back.decision.pick.reproducer, rec.decision.pick.reproducer);
  EXPECT_EQ(back.decision.pick.dying, rec.decision.pick.dying);
  EXPECT_EQ(back.epoch, rec.epoch);
  EXPECT_EQ(back.alive, rec.alive);
  EXPECT_EQ(back.table_hash, rec.table_hash);
  ASSERT_EQ(back.table.ranges().size(), rec.table.ranges().size());
  for (std::size_t i = 0; i < rec.table.ranges().size(); ++i) {
    EXPECT_EQ(back.table.ranges()[i].begin, rec.table.ranges()[i].begin);
    EXPECT_EQ(back.table.ranges()[i].end, rec.table.ranges()[i].end);
    EXPECT_EQ(back.table.ranges()[i].owner, rec.table.ranges()[i].owner);
  }
}

TEST(DecisionLogRecord, RejectsTruncationAtEveryLength) {
  const auto blob = sample(8).encode_blob();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    std::vector<std::byte> cut(blob.begin(),
                               blob.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)DecisionLogRecord::decode_blob(cut),
                 core::CheckpointError)
        << "truncated to " << len << " of " << blob.size() << " bytes";
  }
}

TEST(DecisionLogRecord, RejectsBadMagicAndTrailingBytes) {
  auto blob = sample(8).encode_blob();
  auto bad_magic = blob;
  bad_magic[0] = std::byte{0x00};
  EXPECT_THROW((void)DecisionLogRecord::decode_blob(bad_magic),
               core::CheckpointError);
  blob.push_back(std::byte{0x7f});
  EXPECT_THROW((void)DecisionLogRecord::decode_blob(blob),
               core::CheckpointError);
}

TEST(DecisionLogRecord, RejectsUnsupportedVersionWithClearMessage) {
  auto blob = sample(8).encode_blob();
  const std::uint32_t bogus = kDecisionLogVersion + 17;
  std::memcpy(blob.data() + 8, &bogus, sizeof bogus);  // magic is 8 bytes
  try {
    (void)DecisionLogRecord::decode_blob(blob);
    FAIL() << "expected CheckpointError";
  } catch (const core::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos) << what;
  }
}

TEST(DecisionLog, NewestAndNextGeneration) {
  DecisionLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.newest(), nullptr);
  EXPECT_EQ(log.next_generation(), 0u)
      << "empty log resumes from scratch";
  log.append(sample(0));
  log.append(sample(1));
  ASSERT_NE(log.newest(), nullptr);
  EXPECT_EQ(log.newest()->decision.gen, 1u);
  EXPECT_EQ(log.next_generation(), 2u);
}

TEST(DecisionLog, AppendIsIdempotentPerGeneration) {
  DecisionLog log;
  log.append(sample(4));
  auto resend = sample(4);
  resend.epoch = 99;  // the resend carries fresher ownership
  log.append(resend);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.newest()->epoch, 99u);
}

TEST(DecisionLog, RequiresGenerationOrder) {
  DecisionLog log;
  log.append(sample(6));
  EXPECT_THROW(log.append(sample(4)), std::exception)
      << "records arrive over FIFO channels; out-of-order is a protocol bug";
}

TEST(DecisionLog, PrunesToRetentionWindow) {
  DecisionLog log;
  for (std::uint64_t gen = 0; gen < 10; ++gen) log.append(sample(gen));
  EXPECT_LE(log.size(), 4u);
  EXPECT_EQ(log.newest()->decision.gen, 9u);
  EXPECT_EQ(log.next_generation(), 10u);
}

}  // namespace
}  // namespace egt::ft
