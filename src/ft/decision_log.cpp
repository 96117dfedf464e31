#include "ft/decision_log.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace egt::ft {

namespace {
// "EGTDECLG" — the egt.ft_declog/v1 record magic, distinct from every
// other checkpoint-family blob.
constexpr std::uint64_t kMagic = 0x4547544445434c47ull;
}  // namespace

void DecisionLogRecord::encode(core::wire::Writer& w) const {
  w.u64(kMagic);
  w.u32(kDecisionLogVersion);
  w.u64(view);
  w.u64(decision.gen);
  core::wire::put_nature(w, nature);
  core::wire::put_decision(w, decision);
  w.u64(epoch);
  table.encode(w);
  w.u32(static_cast<std::uint32_t>(alive.size()));
  for (int r : alive) w.u32(static_cast<std::uint32_t>(r));
  w.u64(table_hash);
}

DecisionLogRecord DecisionLogRecord::decode(core::wire::Reader& r) {
  r.header(kMagic, "decision-log record", kDecisionLogVersion,
           kDecisionLogVersion);
  DecisionLogRecord rec;
  rec.view = r.u64("view");
  const std::uint64_t generation = r.u64("generation");
  rec.nature = core::wire::get_nature(r);
  rec.decision = core::wire::get_decision(r, generation);
  rec.epoch = r.u64("ownership epoch");
  rec.table = OwnershipTable::decode(r);
  const std::uint32_t nalive = r.u32("alive count");
  rec.alive.reserve(nalive);
  for (std::uint32_t i = 0; i < nalive; ++i) {
    rec.alive.push_back(static_cast<int>(r.u32("alive rank")));
  }
  rec.table_hash = r.u64("table hash");
  return rec;
}

std::vector<std::byte> DecisionLogRecord::encode_blob() const {
  core::wire::Writer w;
  encode(w);
  return w.take();
}

DecisionLogRecord DecisionLogRecord::decode_blob(
    const std::vector<std::byte>& blob) {
  core::wire::Reader r(blob, "decision-log record");
  DecisionLogRecord rec = decode(r);
  r.expect_exhausted();
  return rec;
}

void DecisionLog::append(DecisionLogRecord rec) {
  // Idempotent per generation: a resend after a lost ack replaces its twin.
  for (DecisionLogRecord& existing : records_) {
    if (existing.decision.gen == rec.decision.gen) {
      existing = std::move(rec);
      return;
    }
  }
  EGT_REQUIRE_MSG(records_.empty() ||
                      rec.decision.gen > records_.back().decision.gen,
                  "decision log: records must arrive in generation order");
  records_.push_back(std::move(rec));
  if (records_.size() > kRetained) {
    records_.erase(records_.begin(),
                   records_.begin() +
                       static_cast<std::ptrdiff_t>(records_.size() -
                                                   kRetained));
  }
}

}  // namespace egt::ft
