// Journal recovery property tests (the egt.jobs/v1 crash contract):
// whatever a crash or bit rot does to the file, replay never loses a
// record acknowledged before the damage, never invents a record, and
// never reports a completed job it cannot prove (CRC-intact) — the two
// scheduler invariants "no acknowledged job lost" and "no completed job
// run twice" reduce to exactly these.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "serve/journal.hpp"

namespace egt::serve {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("egt_journal_test_" + tag + "_" +
               std::to_string(
                   ::testing::UnitTest::GetInstance()->random_seed()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string wal() const { return (path_ / "jobs.wal").string(); }

 private:
  fs::path path_;
};

JournalRecord submitted(std::uint64_t id, const std::string& tenant) {
  JournalRecord rec;
  rec.type = JournalRecord::Type::Submitted;
  rec.job_id = id;
  rec.tenant = tenant;
  rec.spec_json = "{\"schema\":\"egt.job/v1\",\"tenant\":\"" + tenant + "\"}";
  return rec;
}

JournalRecord completed(std::uint64_t id) {
  JournalRecord rec;
  rec.type = JournalRecord::Type::Completed;
  rec.job_id = id;
  rec.result.generations = 100 + id;
  rec.result.table_hash = 0xdeadbeef00ull + id;
  rec.result.fitness_hash = 0xfeed0000ull + id;
  rec.result.fitness = {1.5, -2.25, 3.125 + static_cast<double>(id)};
  rec.result.counters.generations = 100 + id;
  rec.result.counters.adoptions = 7;
  rec.result.counters.pairs_evaluated = 12345;
  rec.result.counters.games_played = 777;
  rec.result.attempts = 2;
  rec.result.preemptions = 1;
  return rec;
}

JournalRecord failed(std::uint64_t id) {
  JournalRecord rec;
  rec.type = JournalRecord::Type::Failed;
  rec.job_id = id;
  rec.reason = "deadline expired";
  return rec;
}

bool records_equal(const JournalRecord& a, const JournalRecord& b) {
  return a.type == b.type && a.job_id == b.job_id && a.tenant == b.tenant &&
         a.spec_json == b.spec_json && a.reason == b.reason &&
         a.result.generations == b.result.generations &&
         a.result.table_hash == b.result.table_hash &&
         a.result.fitness_hash == b.result.fitness_hash &&
         a.result.fitness == b.result.fitness &&
         a.result.counters == b.result.counters &&
         a.result.attempts == b.result.attempts &&
         a.result.preemptions == b.result.preemptions;
}

std::vector<JournalRecord> sample_records() {
  std::vector<JournalRecord> recs;
  recs.push_back(submitted(1, "alice"));
  recs.push_back(submitted(2, "bob"));
  recs.push_back(completed(1));
  recs.push_back(failed(2));
  JournalRecord cancel;
  cancel.type = JournalRecord::Type::Cancelled;
  cancel.job_id = 3;
  recs.push_back(submitted(3, "carol"));
  recs.push_back(cancel);
  return recs;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(JournalRecord, EveryTypeRoundTrips) {
  for (const JournalRecord& rec : sample_records()) {
    const JournalRecord back = decode_record(encode_record(rec));
    EXPECT_TRUE(records_equal(rec, back));
  }
}

TEST(JobJournal, AppendThenReplayReturnsEverythingInOrder) {
  TempDir dir("append");
  const auto recs = sample_records();
  {
    JobJournal journal(dir.wal());
    for (const auto& rec : recs) journal.append(rec);
  }
  const auto replay = JobJournal::replay(dir.wal());
  EXPECT_FALSE(replay.missing);
  EXPECT_FALSE(replay.truncated_tail);
  EXPECT_EQ(replay.corrupt_skipped, 0u);
  ASSERT_EQ(replay.records.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_TRUE(records_equal(recs[i], replay.records[i])) << "record " << i;
  }
}

TEST(JobJournal, ReopeningAppendsAfterExistingRecords) {
  TempDir dir("reopen");
  {
    JobJournal journal(dir.wal());
    journal.append(submitted(1, "alice"));
  }
  {
    JobJournal journal(dir.wal());
    journal.append(completed(1));
  }
  const auto replay = JobJournal::replay(dir.wal());
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[1].type, JournalRecord::Type::Completed);
}

TEST(JobJournal, MissingFileIsEmptyNotAnError) {
  TempDir dir("missing");
  const auto replay = JobJournal::replay(dir.wal());
  EXPECT_TRUE(replay.missing);
  EXPECT_TRUE(replay.records.empty());
}

// The crash-mid-append property: truncate the file at EVERY possible
// length. The replay must recover exactly the records whose final byte
// made it to disk — a strict prefix, in order, with nothing invented.
TEST(JobJournal, TruncationAtEveryLengthYieldsAnIntactPrefix) {
  TempDir dir("truncate");
  const auto recs = sample_records();
  {
    JobJournal journal(dir.wal());
    for (const auto& rec : recs) journal.append(rec);
  }
  const std::vector<char> full = read_file(dir.wal());

  // Record boundaries: header, then cumulative framed lengths.
  std::vector<std::size_t> boundaries{kJournalHeaderBytes};
  for (const auto& rec : recs) {
    boundaries.push_back(boundaries.back() + frame_record(rec).size());
  }
  ASSERT_EQ(boundaries.back(), full.size());

  for (std::size_t len = 0; len <= full.size(); ++len) {
    write_file(dir.wal(), std::vector<char>(full.begin(),
                                            full.begin() +
                                                static_cast<std::ptrdiff_t>(
                                                    len)));
    const auto replay = JobJournal::replay(dir.wal());
    // How many records end at or before this length?
    std::size_t expect = 0;
    while (expect + 1 < boundaries.size() && boundaries[expect + 1] <= len) {
      ++expect;
    }
    ASSERT_EQ(replay.records.size(), expect) << "length " << len;
    for (std::size_t i = 0; i < expect; ++i) {
      EXPECT_TRUE(records_equal(recs[i], replay.records[i]))
          << "length " << len << " record " << i;
    }
    const bool cut_mid_record = len != boundaries.back() &&
                                len != boundaries[expect] &&
                                len > kJournalHeaderBytes;
    if (cut_mid_record) {
      EXPECT_TRUE(replay.truncated_tail) << "length " << len;
    }
  }
}

// The bit-rot property: flip every single byte of the file in turn. The
// replay must never crash, never return a record that was not appended,
// and must keep every record whose bytes were untouched outside the
// damaged one (resync-on-magic): at most two records may be lost per flip
// (the damaged record, plus its successor when the flip forges a fake
// frame whose length swallows it).
TEST(JobJournal, BitFlipAtEveryPositionNeverInventsRecords) {
  TempDir dir("bitflip");
  const auto recs = sample_records();
  {
    JobJournal journal(dir.wal());
    for (const auto& rec : recs) journal.append(rec);
  }
  const std::vector<char> full = read_file(dir.wal());

  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    std::vector<char> damaged = full;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x40);
    write_file(dir.wal(), damaged);
    const auto replay = JobJournal::replay(dir.wal());
    // Every recovered record must be one of the originals, in order
    // (subsequence check) — CRC + decode validation forbid inventions.
    std::size_t cursor = 0;
    for (const auto& got : replay.records) {
      while (cursor < recs.size() && !records_equal(recs[cursor], got)) {
        ++cursor;
      }
      ASSERT_LT(cursor, recs.size())
          << "flip at " << pos << " produced a record never appended";
      ++cursor;
    }
    if (pos < kJournalHeaderBytes) {
      // A damaged header makes the file a non-journal: nothing recovered,
      // but loudly (corrupt_skipped), never a misparse.
      EXPECT_TRUE(replay.records.empty());
      EXPECT_GT(replay.corrupt_skipped, 0u);
      continue;
    }
    EXPECT_GE(replay.records.size() + 2, recs.size()) << "flip at " << pos;
    if (replay.records.size() < recs.size()) {
      EXPECT_TRUE(replay.corrupt_skipped > 0 || replay.truncated_tail)
          << "flip at " << pos << " lost records silently";
    }
  }
}

TEST(JobJournal, OversizedLengthFieldIsDamageNotAnAllocation) {
  TempDir dir("oversize");
  {
    JobJournal journal(dir.wal());
    journal.append(submitted(1, "alice"));
    journal.append(completed(1));
  }
  // Forge a frame announcing a ludicrous payload length after record 1.
  std::vector<char> bytes = read_file(dir.wal());
  const std::size_t rec1_end =
      kJournalHeaderBytes + frame_record(submitted(1, "alice")).size();
  const std::uint32_t magic = kRecordMagic;
  const std::uint32_t huge = kMaxRecordBytes + 1;
  std::vector<char> forged(bytes.begin(),
                           bytes.begin() + static_cast<std::ptrdiff_t>(rec1_end));
  forged.insert(forged.end(), reinterpret_cast<const char*>(&magic),
                reinterpret_cast<const char*>(&magic) + 4);
  forged.insert(forged.end(), reinterpret_cast<const char*>(&huge),
                reinterpret_cast<const char*>(&huge) + 4);
  forged.insert(forged.end(), bytes.begin() + static_cast<std::ptrdiff_t>(rec1_end),
                bytes.end());
  write_file(dir.wal(), forged);
  const auto replay = JobJournal::replay(dir.wal());
  ASSERT_EQ(replay.records.size(), 2u);  // resynced past the forgery
  EXPECT_GT(replay.corrupt_skipped, 0u);
}

TEST(JobJournal, ForeignFileRecoversNothing) {
  TempDir dir("foreign");
  write_file(dir.wal(), {'n', 'o', 't', ' ', 'a', ' ', 'w', 'a', 'l', '!',
                         '!', '!', '!', '!'});
  const auto replay = JobJournal::replay(dir.wal());
  EXPECT_TRUE(replay.records.empty());
  EXPECT_GT(replay.corrupt_skipped, 0u);
}

TEST(JobJournal, CompactionRewritesExactlyTheGivenRecords) {
  TempDir dir("compact");
  {
    JobJournal journal(dir.wal());
    for (const auto& rec : sample_records()) journal.append(rec);
  }
  std::vector<JournalRecord> keep{submitted(1, "alice"), completed(1)};
  JobJournal::compact(dir.wal(), keep);
  const auto replay = JobJournal::replay(dir.wal());
  EXPECT_EQ(replay.corrupt_skipped, 0u);
  ASSERT_EQ(replay.records.size(), keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    EXPECT_TRUE(records_equal(keep[i], replay.records[i]));
  }
  // And the compacted file accepts further appends.
  {
    JobJournal journal(dir.wal());
    journal.append(failed(1));
  }
  EXPECT_EQ(JobJournal::replay(dir.wal()).records.size(), 3u);
}

}  // namespace
}  // namespace egt::serve
