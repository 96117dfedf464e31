// Per-rank block checkpoints: the recovery substrate of the ft engine.
//
// Every checkpoint interval each rank serializes the evaluation state of
// its owned fitness blocks — fitness vector plus, in the cached modes, the
// full payoff matrix — into a versioned blob (same wire helpers and
// versioning convention as core/checkpoint.hpp) and publishes it to a
// CheckpointStore. When a rank dies, the rank adopting one of its ranges
// first looks for a *fresh* covering blob (same generation, same strategy
// table hash): a hit restores the block without replaying a single game; a
// miss falls back to recomputation from the replicated strategy table —
// recovery is then slower but still bit-exact, because fitness is a pure
// function of (population, generation).
//
// The store is in-memory (the runtime's ranks are threads in one process —
// a surviving "node" can read a dead one's last published state, playing
// the role of the parallel file system a production MPI code would write
// to). The blob format itself is location-independent and hardened:
// truncated, corrupt or version-mismatched blobs throw CheckpointError.
//
// Crash consistency (PR 3): every stored blob carries the shared CRC-32
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

#include "core/wire.hpp"
#include "pop/population.hpp"

namespace egt::ft {

/// Bumped whenever the block-checkpoint layout changes; readers reject any
/// other value with a clear CheckpointError.
/// v2 carried a dedup class-pair payoff table after the matrix; v3 drops
/// it — the matrix is the block's whole dedup state.
inline constexpr std::uint32_t kBlockCheckpointVersion = 3;

/// Evaluation state of one fitness block at one instant.
struct BlockCheckpoint {
  std::uint64_t config_fingerprint = 0;
  std::uint64_t generation = 0;  ///< next generation to run when captured
  std::uint64_t table_hash = 0;  ///< pop::Population::table_hash at capture
  pop::SSetId begin = 0;
  pop::SSetId end = 0;
  std::uint32_t matrix_cols = 0;  ///< ssets for cached modes, 0 for Sampled
  std::vector<double> fitness;    ///< end - begin entries
  std::vector<double> matrix;     ///< (end - begin) * matrix_cols entries

  std::vector<std::byte> encode() const;
  /// Throws CheckpointError on truncation, bad magic, unsupported version
  /// or inconsistent dimensions.
  static BlockCheckpoint decode(const std::vector<std::byte>& blob);

  bool covers(pop::SSetId b, pop::SSetId e) const noexcept {
    return begin <= b && e <= end;
  }

  /// Extract the rows of sub-range [b, e) (must be covered).
  std::vector<double> fitness_slice(pop::SSetId b, pop::SSetId e) const;
  std::vector<double> matrix_slice(pop::SSetId b, pop::SSetId e) const;
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
  /// decoded, and passing the freshness gate that makes the restore fast
  /// path bit-exact — `table_hash` must match, and the generation must
  /// either equal `generation` or, for cached modes (matrix_cols > 0,
  /// where fitness and matrix are pure functions of the strategy table),
  /// may be older: a torn newest entry then falls back to the newest
  /// intact older generation instead of forcing a recompute. Corrupt
  /// entries are skipped (reported through `on_corrupt`, e.g. to bump
  /// ft.checkpoint_fallback) — recovery never fails on a damaged entry.
  std::optional<BlockCheckpoint> find_covering(
      pop::SSetId begin, pop::SSetId end, std::uint64_t generation,
      std::uint64_t table_hash,
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
