// Per-rank block checkpoints: the recovery substrate of the ft engine.
//
// Only blocks that recomputation cannot rebuild bit for bit are
// checkpointed (!core::recomputes_exactly: SampledFrozen, and Analytic
// with a frozen fall-through pair, whose samples remember when each pair
// was played). Every checkpoint interval such a rank serializes the
// evaluation state of its owned fitness blocks (core::BlockFitness::State,
// as the engine checkpoint carries it) behind a header (config
// fingerprint, generation, table hash) into a versioned blob and
// publishes it to a CheckpointStore. When a rank dies, the rank adopting
// one of its ranges first looks for a *fresh* covering blob (same strategy
// table hash, captured since the last strategy change): a hit restores the
// block without replaying a single game; a miss recomputes it from the
// replicated strategy table, resampling the frozen pairs.
//
// The store is in-memory (the runtime's ranks are threads in one process —
// a surviving "node" can read a dead one's last published state, playing
// the role of the parallel file system a production MPI code would write
// to). The blob format itself is location-independent and hardened:
// truncated, corrupt or version-mismatched blobs throw CheckpointError.
//
// Crash consistency: every stored blob carries the shared CRC-32
// footer from core/checkpoint_store.hpp, and the store retains the newest
// `keep` generations per (rank, range) instead of only the latest. A torn
// write (injected via FaultPlan torn_checkpoints, or a real crash on a
// non-atomic PFS) fails the CRC on load and recovery falls back to the
// newest *intact* older entry — or to recomputation — rather than feeding
// garbage into the bit-exact restore path.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/fitness.hpp"
#include "core/wire.hpp"
#include "pop/population.hpp"

namespace egt::ft {

/// Bumped whenever the block-checkpoint layout changes; readers reject any
/// other value with a clear CheckpointError.
/// v2 carried a dedup class-pair payoff table after the matrix; v3 drops
/// it — the matrix is the block's whole dedup state. v4: the body is
/// core::BlockFitness::State's encoding. v5: a block with a matrix saves
/// the matrix alone (its exact row sums define the fitness).
inline constexpr std::uint32_t kBlockCheckpointVersion = 5;

/// Evaluation state of one fitness block at one instant.
struct BlockCheckpoint {
  std::uint64_t config_fingerprint = 0;
  std::uint64_t generation = 0;  ///< next generation to run when captured
  std::uint64_t table_hash = 0;  ///< pop::Population::table_hash at capture
  core::BlockFitness::State state;

  std::vector<std::byte> encode() const;
  /// Throws CheckpointError on truncation, bad magic, unsupported version
  /// or inconsistent dimensions.
  static BlockCheckpoint decode(const std::vector<std::byte>& blob);

  bool covers(pop::SSetId b, pop::SSetId e) const noexcept {
    return state.begin <= b && e <= state.end;
  }
};

/// Thread-safe blob store, keyed by (publishing rank, range, generation),
/// retaining the newest `keep` generations per (rank, range). The master
/// reads a dead rank's entries while survivors keep publishing — hence the
/// lock.
class CheckpointStore {
 public:
  explicit CheckpointStore(int keep = 3);

  /// Publish as generation `generation` (replacing any previous blob of
  /// the same rank, range and generation; pruning older generations of the
  /// same rank+range beyond the retention count). A CRC footer is appended
  /// here; when `torn` is set the stored bytes are truncated mid-payload,
  /// modelling a crash in the middle of a non-atomic checkpoint write.
  /// The blob is decoded lazily by readers; put() keeps bytes only.
  void put(int rank, pop::SSetId begin, pop::SSetId end,
           std::uint64_t generation, std::vector<std::byte> blob,
           bool torn = false);

  /// Newest usable blob covering [begin, end): CRC-verified, cleanly
  /// decoded, and passing the freshness gate that makes the restore
  /// bit-exact. `table_hash` must match, and no strategy may have changed
  /// since the entry was captured: its generation must be at least
  /// `unchanged_since`, the first generation after the last strategy
  /// change. Checkpointed blocks are cached (SampledFrozen, or Analytic
  /// with a frozen fall-through pair), so their state moves only when a
  /// strategy changes; a matching hash alone does not prove that, since
  /// an A→B→A change restores the hash but not the generation keys of
  /// the frozen samples. Any older generation that passes the gate is as
  /// good as the newest: a torn newest entry falls back to it instead of
  /// forcing a recompute. Corrupt entries are skipped (reported through
  /// `on_corrupt`, e.g. to bump ft.checkpoint_fallback) — recovery never
  /// fails on a damaged entry.
  std::optional<BlockCheckpoint> find_covering(
      pop::SSetId begin, pop::SSetId end, std::uint64_t table_hash,
      std::uint64_t unchanged_since,
      const std::function<void(const std::string& why)>& on_corrupt =
          nullptr) const;

  int keep() const noexcept { return keep_; }
  std::size_t entries() const;
  std::uint64_t total_bytes() const;

 private:
  struct Entry {
    int rank;
    pop::SSetId begin, end;
    std::uint64_t generation;
    std::vector<std::byte> blob;  ///< CRC-footed (possibly torn) bytes
  };
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  int keep_;
};

}  // namespace egt::ft
