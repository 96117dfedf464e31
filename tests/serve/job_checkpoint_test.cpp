// The preemption/resume unit: a job checkpointed mid-run and resumed
// through the Engine block-restore path must finish bit-identical to an
// undisturbed run — strategy table, fitness doubles, AND the accumulated
// engine.* counters (the property plain core checkpoints cannot give,
// since their restore pays a fresh initialization pass).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/checkpoint_store.hpp"
#include "core/engine.hpp"
#include "core/trace.hpp"
#include "core/wire.hpp"
#include "obs/metrics.hpp"
#include "serve/job_checkpoint.hpp"

namespace egt::serve {
namespace {

core::SimConfig small_config(core::FitnessMode mode) {
  core::SimConfig cfg;
  cfg.ssets = 10;
  cfg.memory = 1;
  cfg.generations = 30;
  cfg.pc_rate = 0.4;
  cfg.mutation_rate = 0.2;
  cfg.seed = 20260808;
  cfg.fitness_mode = mode;
  return cfg;
}

EngineCounters counters_of(const obs::MetricsRegistry& reg) {
  const obs::MetricsSnapshot s = reg.snapshot();
  EngineCounters c;
  c.generations = s.counter_value("engine.generations");
  c.pc_events = s.counter_value("engine.pc_events");
  c.adoptions = s.counter_value("engine.adoptions");
  c.moran_events = s.counter_value("engine.moran_events");
  c.mutations = s.counter_value("engine.mutations");
  c.pairs_evaluated = s.counter_value("engine.pairs_evaluated");
  c.games_played = s.counter_value("engine.games_played");
  return c;
}

class JobCheckpointModes
    : public ::testing::TestWithParam<core::FitnessMode> {};

TEST_P(JobCheckpointModes, ResumeIsBitIdenticalIncludingCounters) {
  const core::SimConfig cfg = small_config(GetParam());

  // Oracle: one undisturbed run.
  obs::MetricsRegistry oracle_reg;
  core::Engine oracle(cfg, &oracle_reg);
  oracle.run(cfg.generations);
  const EngineCounters want_counters = counters_of(oracle_reg);

  // Interrupted run: stop mid-way, capture, encode/decode, resume.
  obs::MetricsRegistry first_reg;
  core::Engine first(cfg, &first_reg);
  const std::uint64_t cut = cfg.generations / 2;
  while (first.generation() < cut) first.step();
  const JobCheckpoint captured = capture_job_checkpoint(
      first, counters_of(first_reg), /*attempts=*/1, /*preemptions=*/1);
  const std::vector<std::byte> blob = encode_job_checkpoint(captured);

  JobCheckpoint decoded = decode_job_checkpoint(blob);
  EXPECT_EQ(decoded.attempts, 1u);
  EXPECT_EQ(decoded.preemptions, 1u);
  const EngineCounters base = decoded.counters;
  obs::MetricsRegistry resumed_reg;
  core::Engine resumed =
      resume_job_engine(cfg, std::move(decoded), &resumed_reg);
  EXPECT_EQ(resumed.generation(), cut);
  while (resumed.generation() < cfg.generations) resumed.step();

  EXPECT_EQ(resumed.population().table_hash(),
            oracle.population().table_hash());
  const auto got_fit = resumed.population().fitness();
  const auto want_fit = oracle.population().fitness();
  ASSERT_EQ(got_fit.size(), want_fit.size());
  EXPECT_EQ(std::memcmp(got_fit.data(), want_fit.data(),
                        got_fit.size() * sizeof(double)),
            0);
  EXPECT_EQ(core::hash_fitness(got_fit), core::hash_fitness(want_fit));

  // The headline property: base (saved) + resumed growth == undisturbed.
  const EngineCounters total = counters_add(base, counters_of(resumed_reg));
  EXPECT_TRUE(counters_equal(total, want_counters))
      << "pairs " << total.pairs_evaluated << " vs "
      << want_counters.pairs_evaluated << ", games " << total.games_played
      << " vs " << want_counters.games_played;
}

INSTANTIATE_TEST_SUITE_P(AllFitnessModes, JobCheckpointModes,
                         ::testing::Values(core::FitnessMode::Sampled,
                                           core::FitnessMode::SampledFrozen,
                                           core::FitnessMode::Analytic));

TEST(JobCheckpoint, DamageIsRejectedNotMisread) {
  const core::SimConfig cfg = small_config(core::FitnessMode::Analytic);
  obs::MetricsRegistry reg;
  core::Engine engine(cfg, &reg);
  while (engine.generation() < 5) engine.step();
  std::vector<std::byte> blob = encode_job_checkpoint(
      capture_job_checkpoint(engine, counters_of(reg), 1, 0));

  // Magic damage.
  std::vector<std::byte> bad = blob;
  bad[0] ^= std::byte{0xff};
  EXPECT_THROW(decode_job_checkpoint(bad), core::CheckpointError);
  // Truncation.
  std::vector<std::byte> cut(blob.begin(), blob.begin() + 40);
  EXPECT_THROW(decode_job_checkpoint(cut), core::CheckpointError);
  // Trailing garbage.
  std::vector<std::byte> extra = blob;
  extra.push_back(std::byte{0x42});
  EXPECT_THROW(decode_job_checkpoint(extra), core::CheckpointError);
}

std::vector<std::byte> analytic_blob_at_gen5() {
  const core::SimConfig cfg = small_config(core::FitnessMode::Analytic);
  obs::MetricsRegistry reg;
  core::Engine engine(cfg, &reg);
  while (engine.generation() < 5) engine.step();
  return encode_job_checkpoint(
      capture_job_checkpoint(engine, counters_of(reg), 1, 0));
}

TEST(JobCheckpoint, RejectsTruncationAtEveryLength) {
  const std::vector<std::byte> blob = analytic_blob_at_gen5();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const std::vector<std::byte> cut(
        blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(decode_job_checkpoint(cut), core::CheckpointError)
        << "truncated to " << len << " of " << blob.size() << " bytes";
  }
}

TEST(JobCheckpoint, EveryBitFlipOfACommittedBlobIsRejected) {
  // Job checkpoints are committed through CheckpointDir, which appends the
  // shared CRC footer: any single-bit flip must fail the load.
  std::vector<std::byte> stored = analytic_blob_at_gen5();
  core::append_crc_footer(stored);
  for (std::size_t i = 0; i < stored.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::byte> flipped = stored;
      flipped[i] ^= std::byte{static_cast<unsigned char>(1u << bit)};
      EXPECT_THROW(decode_job_checkpoint(core::checked_payload(flipped)),
                   core::CheckpointError)
          << "flip of bit " << bit << " in byte " << i;
    }
  }
}

TEST(JobCheckpoint, RejectsVersion1BlobWithDedupList) {
  // A v1 blob is the v2 layout plus a trailing dedup class-pair list
  // (u32 count, then u64 a, u64 b, f64 payoff per entry). It must be
  // refused by version, which sends the scheduler to a fresh start.
  std::vector<std::byte> blob = analytic_blob_at_gen5();
  core::wire::Writer tail;
  tail.u32(1);
  tail.u64(0x1111);
  tail.u64(0x2222);
  tail.f64(2.5);
  const std::vector<std::byte> extra = tail.take();
  blob.insert(blob.end(), extra.begin(), extra.end());
  const std::uint32_t v1 = 1;
  std::memcpy(blob.data() + 8, &v1, sizeof v1);  // magic is 8 bytes
  try {
    (void)decode_job_checkpoint(blob);
    FAIL() << "expected CheckpointError";
  } catch (const core::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
  }
}

TEST(JobCheckpoint, ResumeValidatesTheConfigFingerprint) {
  const core::SimConfig cfg = small_config(core::FitnessMode::Sampled);
  obs::MetricsRegistry reg;
  core::Engine engine(cfg, &reg);
  while (engine.generation() < 5) engine.step();
  JobCheckpoint ckpt =
      capture_job_checkpoint(engine, counters_of(reg), 1, 0);
  core::SimConfig other = cfg;
  other.seed += 1;
  EXPECT_THROW(resume_job_engine(other, std::move(ckpt), nullptr),
               core::CheckpointError);
}

}  // namespace
}  // namespace egt::serve
