// The replicated decision log behind Nature Agent failover.
//
// The paper's global tier is one process: the Nature Agent plans every
// generation's PC/mutation events and resolves adoptions. PR 2 left it a
// single point of failure. The fix is write-ahead replication of the only
// state that cannot be recomputed — Nature's RNG trajectory and the
// decisions already taken: before the master broadcasts a generation's
// decision, it streams a DecisionLogRecord to its warm standby(s)
// and waits for the ack. Each record is a *self-contained snapshot* of the
// global tier after that generation: Nature's post-draw RNG state, the
// generation's decision, the ownership table and alive set, and the hash
// of the strategy table the decision produces. On master death the elected
// standby restores from its newest record alone — no multi-record replay,
// no dependence on earlier history — and resumes planning at the next
// generation with bit-identical draws.
//
// Wire format "egt.ft_declog/v2": magic + version + the fields below, all
// bounds-checked on decode (CheckpointError on anything malformed).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/generation.hpp"
#include "core/wire.hpp"
#include "ft/ownership.hpp"
#include "pop/nature.hpp"

namespace egt::ft {

/// Bumped whenever the record layout changes; readers reject any other
/// value with a clear CheckpointError.
inline constexpr std::uint32_t kDecisionLogVersion = 2;

/// The global tier's state after one completed generation. See file
/// comment: self-contained — the newest record is all a successor needs.
struct DecisionLogRecord {
  std::uint64_t view = 0;  ///< master view (election count) at append
  /// Nature's state AFTER planning (and deciding) `decision.gen`: restore
  /// it and the next plan_generation() consumes the same draws the dead
  /// master would have.
  pop::NatureAgent::State nature{};
  /// The decision of the generation this record completes
  /// (`decision.gen`) — what the next PLAN's prev-decision field must
  /// carry so workers that missed the broadcast can heal.
  core::GenerationDecision decision;
  /// Ownership view at append time: epoch-numbered table plus the ranks
  /// the master believed alive (master included). The successor seeds its
  /// reconfiguration from these instead of a fault-free initial table.
  std::uint64_t epoch = 0;
  OwnershipTable table;
  std::vector<int> alive;
  /// pop::Population::table_hash after applying `generation` — the
  /// integrity check for the successor's own replica of the table.
  std::uint64_t table_hash = 0;

  void encode(core::wire::Writer& w) const;
  /// Throws core::CheckpointError on truncation, bad magic or version.
  static DecisionLogRecord decode(core::wire::Reader& r);

  std::vector<std::byte> encode_blob() const;
  static DecisionLogRecord decode_blob(const std::vector<std::byte>& blob);
};

/// A standby's copy of the log. Records arrive in generation order over a
/// FIFO channel; append is idempotent per generation (a resent record
/// replaces its twin). Only the newest record matters for recovery —
/// older ones are pruned beyond a small debugging window.
class DecisionLog {
 public:
  void append(DecisionLogRecord rec);

  const DecisionLogRecord* newest() const noexcept {
    return records_.empty() ? nullptr : &records_.back();
  }

  /// The generation a master restored from this log resumes at: one past
  /// the newest completed generation, or 0 for an empty log (master died
  /// before completing generation 0 — the successor starts from scratch).
  std::uint64_t next_generation() const noexcept {
    return records_.empty() ? 0 : records_.back().decision.gen + 1;
  }

  bool empty() const noexcept { return records_.empty(); }
  std::size_t size() const noexcept { return records_.size(); }

 private:
  static constexpr std::size_t kRetained = 4;
  std::vector<DecisionLogRecord> records_;  ///< ascending by generation
};

}  // namespace egt::ft
