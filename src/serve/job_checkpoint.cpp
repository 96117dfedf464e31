#include "serve/job_checkpoint.hpp"

#include "core/wire.hpp"

namespace egt::serve {

std::vector<std::byte> encode_job_checkpoint(const JobCheckpoint& ckpt) {
  core::wire::Writer w;
  w.u64(kJobCheckpointMagic);
  w.u32(kJobCheckpointVersion);
  w.u32(ckpt.attempts);
  w.u32(ckpt.preemptions);
  w.u64(ckpt.counters.generations);
  w.u64(ckpt.counters.pc_events);
  w.u64(ckpt.counters.adoptions);
  w.u64(ckpt.counters.moran_events);
  w.u64(ckpt.counters.mutations);
  w.u64(ckpt.counters.pairs_evaluated);
  w.u64(ckpt.counters.games_played);
  w.bytes(ckpt.core);
  return w.take();
}

JobCheckpoint decode_job_checkpoint(const std::vector<std::byte>& blob) {
  core::wire::Reader r(blob, "job checkpoint");
  r.header(kJobCheckpointMagic, "job checkpoint", kJobCheckpointVersion,
           kJobCheckpointVersion);
  JobCheckpoint ckpt;
  ckpt.attempts = r.u32("attempts");
  ckpt.preemptions = r.u32("preemptions");
  ckpt.counters.generations = r.u64("counter generations");
  ckpt.counters.pc_events = r.u64("counter pc_events");
  ckpt.counters.adoptions = r.u64("counter adoptions");
  ckpt.counters.moran_events = r.u64("counter moran_events");
  ckpt.counters.mutations = r.u64("counter mutations");
  ckpt.counters.pairs_evaluated = r.u64("counter pairs_evaluated");
  ckpt.counters.games_played = r.u64("counter games_played");
  ckpt.core = r.bytes("core checkpoint");
  r.expect_exhausted();
  return ckpt;
}

JobCheckpoint capture_job_checkpoint(const core::Engine& engine,
                                     const EngineCounters& counters,
                                     std::uint32_t attempts,
                                     std::uint32_t preemptions) {
  JobCheckpoint ckpt;
  ckpt.attempts = attempts;
  ckpt.preemptions = preemptions;
  ckpt.counters = counters;
  ckpt.core = core::save_checkpoint(engine);
  return ckpt;
}

core::Engine resume_job_engine(const core::SimConfig& config,
                               JobCheckpoint ckpt,
                               obs::MetricsRegistry* metrics) {
  return core::restore_checkpoint(config, ckpt.core, metrics);
}

}  // namespace egt::serve
