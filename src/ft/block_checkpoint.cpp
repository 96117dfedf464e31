#include "ft/block_checkpoint.hpp"

#include <algorithm>

#include "core/checkpoint_store.hpp"
#include "util/check.hpp"

namespace egt::ft {

namespace {
// "EGTFTBLK" — distinct from the engine checkpoint's magic, so feeding one
// blob kind to the other reader fails immediately with a clear error.
constexpr std::uint64_t kMagic = 0x4547544654424c4bull;
}  // namespace

std::vector<std::byte> BlockCheckpoint::encode() const {
  core::wire::Writer w;
  w.u64(kMagic);
  w.u32(kBlockCheckpointVersion);
  w.u64(config_fingerprint);
  w.u64(generation);
  w.u64(table_hash);
  state.encode(w);
  return w.take();
}

BlockCheckpoint BlockCheckpoint::decode(const std::vector<std::byte>& blob) {
  core::wire::Reader r(blob, "block checkpoint");
  r.header(kMagic, "block checkpoint", kBlockCheckpointVersion,
           kBlockCheckpointVersion);
  BlockCheckpoint c;
  c.config_fingerprint = r.u64("config fingerprint");
  c.generation = r.u64("generation");
  c.table_hash = r.u64("table hash");
  c.state = core::BlockFitness::State::decode(r);
  r.expect_exhausted();
  return c;
}

CheckpointStore::CheckpointStore(int keep) : keep_(keep) {
  EGT_REQUIRE_MSG(keep_ >= 1, "checkpoint retention must keep >= 1");
}

void CheckpointStore::put(int rank, pop::SSetId begin, pop::SSetId end,
                          std::uint64_t generation,
                          std::vector<std::byte> blob, bool torn) {
  core::append_crc_footer(blob);
  if (torn) {
    // A crash mid-write on a non-atomic store leaves a prefix: cut the
    // footer-carrying blob in half so checked_payload() must reject it.
    blob.resize(blob.size() / 2);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.rank == rank && e.begin == begin && e.end == end &&
        e.generation == generation) {
      e.blob = std::move(blob);
      return;
    }
  }
  entries_.push_back({rank, begin, end, generation, std::move(blob)});
  // Prune this rank+range to the newest `keep_` generations.
  std::vector<std::uint64_t> gens;
  for (const Entry& e : entries_) {
    if (e.rank == rank && e.begin == begin && e.end == end) {
      gens.push_back(e.generation);
    }
  }
  if (gens.size() > static_cast<std::size_t>(keep_)) {
    std::sort(gens.begin(), gens.end());
    const std::uint64_t cutoff = gens[gens.size() - keep_];
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [&](const Entry& e) {
                                    return e.rank == rank &&
                                           e.begin == begin && e.end == end &&
                                           e.generation < cutoff;
                                  }),
                   entries_.end());
  }
}

std::optional<BlockCheckpoint> CheckpointStore::find_covering(
    pop::SSetId begin, pop::SSetId end, std::uint64_t generation,
    std::uint64_t table_hash, std::uint64_t unchanged_since,
    const std::function<void(const std::string& why)>& on_corrupt) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Newest-first so a torn latest entry degrades to the next intact one.
  std::vector<const Entry*> covering;
  for (const Entry& e : entries_) {
    if (e.begin <= begin && end <= e.end) covering.push_back(&e);
  }
  std::sort(covering.begin(), covering.end(),
            [](const Entry* a, const Entry* b) {
              return a->generation > b->generation;
            });
  for (const Entry* e : covering) {
    try {
      BlockCheckpoint c =
          BlockCheckpoint::decode(core::checked_payload(e->blob));
      if (c.table_hash != table_hash || c.generation < unchanged_since) {
        continue;
      }
      // Sampled fitness depends on the generation; a cached block's state
      // moves only when a strategy changes, so any intact entry captured
      // since the last change restores bit-exactly.
      if (c.generation == generation || c.state.cols > 0) return c;
    } catch (const core::CheckpointError& err) {
      // A damaged entry must not fail recovery — the next (older) entry or
      // the recompute path covers.
      if (on_corrupt) on_corrupt(err.what());
    }
  }
  return std::nullopt;
}

std::size_t CheckpointStore::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t CheckpointStore::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const Entry& e : entries_) n += e.blob.size();
  return n;
}

}  // namespace egt::ft
