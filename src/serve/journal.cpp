#include "serve/journal.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "core/checkpoint_store.hpp"
#include "core/wire.hpp"
#include "util/crc32.hpp"

namespace egt::serve {

namespace fs = std::filesystem;
using core::CheckpointError;

namespace {

void put_string(core::wire::Writer& w, const std::string& s) {
  std::vector<std::byte> b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  w.bytes(b);
}

std::string get_string(core::wire::Reader& r, const char* field) {
  const auto b = r.bytes(field);
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

void write_all(int fd, const std::byte* data, std::size_t size,
               const std::string& what) {
  std::size_t off = 0;
  while (off < size) {
    const ::ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("failed writing " + what + ": " +
                               std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

std::uint32_t read_u32(const std::vector<std::byte>& buf, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, buf.data() + off, sizeof v);
  return v;
}

}  // namespace

std::vector<std::byte> encode_record(const JournalRecord& rec) {
  core::wire::Writer w;
  w.u32(static_cast<std::uint32_t>(rec.type));
  w.u64(rec.job_id);
  switch (rec.type) {
    case JournalRecord::Type::Submitted:
      put_string(w, rec.tenant);
      put_string(w, rec.spec_json);
      break;
    case JournalRecord::Type::Completed: {
      const JobResult& res = rec.result;
      w.u64(res.generations);
      w.u64(res.table_hash);
      w.u64(res.fitness_hash);
      w.u32(static_cast<std::uint32_t>(res.fitness.size()));
      w.doubles(res.fitness.data(), res.fitness.size());
      w.u64(res.counters.generations);
      w.u64(res.counters.pc_events);
      w.u64(res.counters.adoptions);
      w.u64(res.counters.moran_events);
      w.u64(res.counters.mutations);
      w.u64(res.counters.pairs_evaluated);
      w.u64(res.counters.games_played);
      w.u32(res.attempts);
      w.u32(res.preemptions);
      break;
    }
    case JournalRecord::Type::Failed:
      put_string(w, rec.reason);
      break;
    case JournalRecord::Type::Cancelled:
      break;
  }
  return w.take();
}

JournalRecord decode_record(const std::vector<std::byte>& payload) {
  core::wire::Reader r(payload, "journal record");
  JournalRecord rec;
  const std::uint32_t type = r.u32("record type");
  if (type < 1 || type > 4) {
    r.fail("unknown record type " + std::to_string(type));
  }
  rec.type = static_cast<JournalRecord::Type>(type);
  rec.job_id = r.u64("job id");
  switch (rec.type) {
    case JournalRecord::Type::Submitted:
      rec.tenant = get_string(r, "tenant");
      rec.spec_json = get_string(r, "spec json");
      break;
    case JournalRecord::Type::Completed: {
      JobResult& res = rec.result;
      res.generations = r.u64("generations");
      res.table_hash = r.u64("table hash");
      res.fitness_hash = r.u64("fitness hash");
      const std::uint32_t n = r.u32("fitness count");
      res.fitness = r.doubles(n, "fitness values");
      res.counters.generations = r.u64("counter generations");
      res.counters.pc_events = r.u64("counter pc_events");
      res.counters.adoptions = r.u64("counter adoptions");
      res.counters.moran_events = r.u64("counter moran_events");
      res.counters.mutations = r.u64("counter mutations");
      res.counters.pairs_evaluated = r.u64("counter pairs_evaluated");
      res.counters.games_played = r.u64("counter games_played");
      res.attempts = r.u32("attempts");
      res.preemptions = r.u32("preemptions");
      break;
    }
    case JournalRecord::Type::Failed:
      rec.reason = get_string(r, "failure reason");
      break;
    case JournalRecord::Type::Cancelled:
      break;
  }
  r.expect_exhausted();
  return rec;
}

std::vector<std::byte> frame_record(const JournalRecord& rec) {
  const auto payload = encode_record(rec);
  core::wire::Writer w;
  w.u32(kRecordMagic);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.append(payload);
  w.u32(util::crc32(payload.data(), payload.size()));
  return w.take();
}

JobJournal::JobJournal(std::string path) : path_(std::move(path)) {
  const bool fresh = !fs::exists(path_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("cannot open job journal " + path_ + ": " +
                             std::strerror(errno));
  }
  if (fresh) {
    core::wire::Writer w;
    w.u64(kJournalMagic);
    w.u32(kJournalVersion);
    const auto header = w.take();
    write_all(fd_, header.data(), header.size(), "journal header " + path_);
    if (::fsync(fd_) != 0) {
      throw std::runtime_error("failed syncing job journal " + path_ + ": " +
                               std::strerror(errno));
    }
    const auto slash = path_.find_last_of('/');
    core::fsync_dir(slash == std::string::npos ? std::string(".")
                                               : path_.substr(0, slash));
  }
}

JobJournal::~JobJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void JobJournal::append(const JournalRecord& rec) {
  const auto frame = frame_record(rec);
  std::lock_guard<std::mutex> lock(mu_);
  write_all(fd_, frame.data(), frame.size(), "journal record " + path_);
  // The ack contract: the record is on stable storage before the caller
  // (admission reply, completion notification) can observe it.
  if (::fsync(fd_) != 0) {
    throw std::runtime_error("failed syncing job journal " + path_ + ": " +
                             std::strerror(errno));
  }
}

JobJournal::Replay JobJournal::replay(const std::string& path) {
  Replay out;
  std::vector<std::byte> buf;
  try {
    buf = core::read_file_bytes(path);
  } catch (const std::exception&) {
    out.missing = true;
    return out;
  }
  if (buf.size() < kJournalHeaderBytes) {
    out.truncated_tail = !buf.empty();
    return out;
  }
  {
    const std::vector<std::byte> header(
        buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(
                                       kJournalHeaderBytes));
    core::wire::Reader r(header, "journal header");
    if (r.u64("journal magic") != kJournalMagic) {
      // A foreign file is damage, not a journal: recover nothing rather
      // than resync into noise.
      out.corrupt_skipped = 1;
      return out;
    }
    if (r.u32("journal version") != kJournalVersion) {
      out.corrupt_skipped = 1;
      return out;
    }
  }
  std::size_t off = kJournalHeaderBytes;
  bool in_damage = false;     // one resync gap counts one skipped record
  bool tear_at_eof = false;   // saw a frame reaching past EOF this gap
  while (off < buf.size()) {
    // A complete frame needs magic + length + CRC beyond the payload.
    if (buf.size() - off < kRecordFrameBytes) {
      out.truncated_tail = true;
      break;
    }
    if (read_u32(buf, off) != kRecordMagic) {
      if (!in_damage) {
        ++out.corrupt_skipped;
        in_damage = true;
      }
      ++off;  // resync: scan for the next record magic
      continue;
    }
    const std::uint32_t len = read_u32(buf, off + 4);
    if (len > kMaxRecordBytes) {
      // A length this size is a flipped bit, not a record.
      if (!in_damage) {
        ++out.corrupt_skipped;
        in_damage = true;
      }
      ++off;
      continue;
    }
    if (buf.size() - off - kRecordFrameBytes < len) {
      // Frame reaches past EOF: a torn final append — or a flipped length
      // field mid-file. Resync rather than break, so one bad length never
      // swallows the intact records behind it; if nothing valid follows,
      // the end-of-loop check reports the tear.
      if (!in_damage) {
        ++out.corrupt_skipped;
        in_damage = true;
      }
      tear_at_eof = true;
      ++off;
      continue;
    }
    const std::size_t payload_off = off + 8;
    const std::uint32_t stored_crc = read_u32(buf, payload_off + len);
    if (util::crc32(buf.data() + payload_off, len) != stored_crc) {
      if (!in_damage) {
        ++out.corrupt_skipped;
        in_damage = true;
      }
      ++off;
      continue;
    }
    std::vector<std::byte> payload(
        buf.begin() + static_cast<std::ptrdiff_t>(payload_off),
        buf.begin() + static_cast<std::ptrdiff_t>(payload_off + len));
    try {
      out.records.push_back(decode_record(payload));
    } catch (const CheckpointError&) {
      // CRC-intact but undecodable: framing is trustworthy, so skip just
      // this record and continue at the next frame boundary.
      ++out.corrupt_skipped;
    }
    in_damage = false;
    tear_at_eof = false;
    off = payload_off + len + 4;
  }
  if (in_damage && tear_at_eof) out.truncated_tail = true;
  return out;
}

void JobJournal::compact(const std::string& path,
                         const std::vector<JournalRecord>& records) {
  core::wire::Writer w;
  w.u64(kJournalMagic);
  w.u32(kJournalVersion);
  auto blob = w.take();
  for (const JournalRecord& rec : records) {
    const auto frame = frame_record(rec);
    blob.insert(blob.end(), frame.begin(), frame.end());
  }
  core::atomic_write_file(path, blob);
}

}  // namespace egt::serve
