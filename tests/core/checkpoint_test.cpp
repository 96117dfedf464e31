#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "core/engine.hpp"
#include "core/generation.hpp"
#include "core/trace.hpp"
#include "game/spec/registry.hpp"
#include "obs/metrics.hpp"
#include "simcheck/case.hpp"

namespace egt::core {
namespace {

SimConfig config(FitnessMode mode) {
  SimConfig cfg;
  cfg.ssets = 16;
  cfg.memory = 1;
  cfg.generations = 120;
  cfg.pc_rate = 0.4;
  cfg.mutation_rate = 0.2;
  cfg.seed = 808;
  cfg.fitness_mode = mode;
  return cfg;
}

/// Every generation's trace point, in order.
class PointLog : public TraceSink {
 public:
  void on_point(const TracePoint& p) override { points.push_back(p); }
  std::vector<TracePoint> points;
};

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// An engine checkpoint restore must equal the uninterrupted run: the
/// strategy table, the fitness bits, every trace point (fitness hash
/// included) and all seven engine.* counters, with one registry across the
/// split as simcheck's restore variant keeps it. The uninterrupted run's
/// fitness must also equal a fresh evaluation every 8th generation.
void expect_same_trajectory(const SimConfig& cfg, std::uint64_t split) {
  obs::MetricsRegistry whole_reg;
  PointLog whole_log;
  Engine uninterrupted(cfg, &whole_reg);
  uninterrupted.set_trace(&whole_log);
  for (std::uint64_t g = 0; g < cfg.generations; ++g) {
    uninterrupted.step();
    if (g % 8 == 7) {
      ASSERT_EQ(simcheck::fresh_fitness_mismatch(uninterrupted), "")
          << "after generation " << g;
    }
  }

  obs::MetricsRegistry split_reg;
  PointLog split_log;
  std::vector<std::byte> blob;
  {
    Engine first_half(cfg, &split_reg);
    first_half.set_trace(&split_log);
    first_half.run(split);
    blob = save_checkpoint(first_half);
  }
  Engine resumed = restore_checkpoint(cfg, blob, &split_reg);
  EXPECT_EQ(resumed.generation(), split);
  resumed.set_trace(&split_log);
  resumed.run(cfg.generations - split);

  EXPECT_EQ(resumed.population().table_hash(),
            uninterrupted.population().table_hash());
  for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
    ASSERT_EQ(bits(resumed.population().fitness(i)),
              bits(uninterrupted.population().fitness(i)))
        << "fitness of SSet " << i;
  }
  const EngineCounters want = counters_from(whole_reg.snapshot());
  const EngineCounters got = counters_from(split_reg.snapshot());
  EXPECT_EQ(got, want) << to_string(got) << " vs " << to_string(want);
  ASSERT_EQ(split_log.points.size(), whole_log.points.size());
  for (std::size_t g = 0; g < whole_log.points.size(); ++g) {
    ASSERT_TRUE(split_log.points[g] == whole_log.points[g])
        << "trace diverges at generation " << g;
  }
}

void expect_same_trajectory(FitnessMode mode) {
  expect_same_trajectory(config(mode), 60);
}

/// 48 SSets of mixed memory-one strategies under 2% noise, 300 generations
/// split at 150: a restore that re-evaluated every pair drifted the
/// fitness bits here in Analytic and SampledFrozen mode, and the work
/// counters in every mode.
SimConfig mixed_noisy_probe(FitnessMode mode) {
  SimConfig cfg = config(mode);
  cfg.ssets = 48;
  cfg.space = pop::StrategySpace::Mixed;
  cfg.game.noise = 0.02;
  cfg.game.rounds = 50;
  cfg.generations = 300;
  cfg.seed = 6 * 7919;
  return cfg;
}

TEST(Checkpoint, ResumeIsBitExactForAnalyticMode) {
  expect_same_trajectory(FitnessMode::Analytic);
}

TEST(Checkpoint, ResumeIsBitExactForSampledMode) {
  expect_same_trajectory(FitnessMode::Sampled);
}

TEST(Checkpoint, ResumeIsBitExactForSampledFrozenMode) {
  expect_same_trajectory(FitnessMode::SampledFrozen);
}

TEST(Checkpoint, ResumeIsBitExactForTheMixedNoisyProbe) {
  for (const FitnessMode mode : {FitnessMode::Analytic,
                                 FitnessMode::SampledFrozen,
                                 FitnessMode::Sampled}) {
    SCOPED_TRACE(static_cast<int>(mode));
    expect_same_trajectory(mixed_noisy_probe(mode), 150);
  }
}

TEST(Checkpoint, ResumeWorksForMixedStrategies) {
  auto cfg = config(FitnessMode::Analytic);
  cfg.space = pop::StrategySpace::Mixed;
  cfg.game.noise = 0.05;
  cfg.generations = 100;
  expect_same_trajectory(cfg, 50);
}

TEST(Checkpoint, ResumeWorksForNWayGames) {
  // N-way strategies serialize with their own kind byte (wire v3); a
  // resumed RPS run must replay the uninterrupted trajectory exactly.
  auto cfg = config(FitnessMode::Analytic);
  cfg.memory = 0;
  cfg.game = *game::find_game("rps");
  cfg.space = pop::StrategySpace::Mixed;
  cfg.generations = 100;
  expect_same_trajectory(cfg, 50);
}

TEST(Checkpoint, ResumeWorksForPublicGoodsGames) {
  // Public goods blocks keep no matrix (their state has zero columns).
  auto cfg = config(FitnessMode::Analytic);
  cfg.memory = 0;
  cfg.game = game::GameSpec::public_goods("pgg", 3.0, 1.0, /*k=*/4);
  cfg.generations = 100;
  expect_same_trajectory(cfg, 50);
}

TEST(Checkpoint, RejectsAFitnessStateOfTheWrongShape) {
  // A block adopts only a state of its own shape. The mode is part of it:
  // an Analytic and a SampledFrozen block have the same matrix width, but
  // their values mean different things.
  const auto cfg = config(FitnessMode::Analytic);
  Engine engine(cfg);
  engine.run(10);
  const BlockFitness::State saved = engine.fitness_block().state();
  for (const FitnessMode mode :
       {FitnessMode::Sampled, FitnessMode::SampledFrozen}) {
    BlockFitness block(config(mode), 0, cfg.ssets);
    EXPECT_THROW(block.restore(saved), CheckpointError)
        << static_cast<int>(mode);
  }
  BlockFitness narrower(cfg, 0, cfg.ssets - 1);
  EXPECT_THROW(narrower.restore(saved), CheckpointError);
}

/// The engine `saved` resumed under `cfg` without a fitness state: every
/// pair evaluated afresh.
Engine reevaluated(const SimConfig& cfg, const Engine& saved) {
  return Engine(cfg, Engine::RestoredState{saved.generation(),
                                           saved.nature_agent().save_state(),
                                           saved.population()});
}

void expect_same_fitness(const Engine& got, const Engine& want) {
  EXPECT_EQ(got.generation(), want.generation());
  EXPECT_EQ(got.population().table_hash(), want.population().table_hash());
  const auto got_fitness = got.fitness_block().block();
  const auto want_fitness = want.fitness_block().block();
  ASSERT_EQ(got_fitness.size(), want_fitness.size());
  for (std::size_t i = 0; i < want_fitness.size(); ++i) {
    ASSERT_EQ(bits(got_fitness[i]), bits(want_fitness[i]))
        << "fitness of SSet " << i;
  }
}

/// Fitness depends only on the population: an engine rebuilt at
/// generation 500 from its RestoredState without the fitness state (which
/// evaluates every pair afresh) agrees bit for bit with the continued
/// engine at the rebuild, and on the strategy table 2000 generations later.
void expect_history_free(SimConfig cfg) {
  cfg.ssets = 64;
  cfg.memory = 1;
  cfg.fitness_mode = FitnessMode::Analytic;
  cfg.mutation_rate = 0.1;
  // Seeds 101-150 include 117, 126 and 145, whose tables diverged under
  // the paper's teacher-better gate while row sums were kept by
  // incremental floating-point updates.
  for (std::uint64_t seed = 101; seed <= 150; ++seed) {
    SCOPED_TRACE(seed);
    cfg.seed = seed;
    Engine continued(cfg);
    continued.run(500);
    Engine rebuilt = reevaluated(cfg, continued);
    expect_same_fitness(rebuilt, continued);
    continued.run(2000);
    rebuilt.run(2000);
    ASSERT_EQ(rebuilt.population().table_hash(),
              continued.population().table_hash());
  }
}

TEST(Checkpoint, FitnessIsHistoryFreeForMixedNoisyMemoryOne) {
  SimConfig cfg;
  cfg.space = pop::StrategySpace::Mixed;
  cfg.game.noise = 0.02;
  cfg.pc_rate = 0.5;
  expect_history_free(cfg);
}

TEST(Checkpoint, FitnessIsHistoryFreeUnderTheTeacherBetterGate) {
  // Imitation makes equal payoffs the normal case, and the gate's strict
  // comparison then decides ties by the last bits of the two values.
  SimConfig cfg;
  cfg.require_teacher_better = true;
  cfg.space = pop::StrategySpace::Pure;
  cfg.game.noise = 0.0;
  cfg.pc_rate = 1.0;
  expect_history_free(cfg);
}

TEST(Checkpoint, ResumeUnderAnotherFitnessModeReevaluates) {
  // The fingerprint leaves the mode out, so an Analytic checkpoint may
  // resume a SampledFrozen or Sampled run. The saved state is dropped and
  // every pair is evaluated in the new mode, never adopted. Noisy mixed
  // strategies make the modes' values differ.
  Engine engine(mixed_noisy_probe(FitnessMode::Analytic));
  engine.run(10);
  const auto blob = save_checkpoint(engine);
  for (const FitnessMode mode :
       {FitnessMode::SampledFrozen, FitnessMode::Sampled}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const auto other = mixed_noisy_probe(mode);
    expect_same_fitness(restore_checkpoint(other, blob),
                        reevaluated(other, engine));
  }
}

TEST(Checkpoint, RejectsDifferentConfig) {
  const auto cfg = config(FitnessMode::Analytic);
  Engine engine(cfg);
  engine.run(10);
  const auto blob = save_checkpoint(engine);
  auto other = cfg;
  other.beta = 2.0;
  EXPECT_THROW((void)restore_checkpoint(other, blob), CheckpointError);
  other = cfg;
  other.seed = 1;
  EXPECT_THROW((void)restore_checkpoint(other, blob), CheckpointError);
}

TEST(Checkpoint, RejectsCorruptBlobs) {
  const auto cfg = config(FitnessMode::Analytic);
  Engine engine(cfg);
  engine.run(5);
  auto blob = save_checkpoint(engine);
  auto truncated = blob;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW((void)restore_checkpoint(cfg, truncated), CheckpointError);
  auto garbage = blob;
  garbage[0] = std::byte{0xff};
  EXPECT_THROW((void)restore_checkpoint(cfg, garbage), CheckpointError);
  auto trailing = blob;
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)restore_checkpoint(cfg, trailing), CheckpointError);
}

TEST(Checkpoint, RejectsTruncationAtEveryLength) {
  // The ASan/UBSan canary: no truncation point may read out of bounds or
  // raise anything but the typed decode error.
  auto cfg = config(FitnessMode::Analytic);
  cfg.ssets = 6;
  cfg.generations = 10;
  Engine engine(cfg);
  engine.run(3);
  const auto blob = save_checkpoint(engine);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    std::vector<std::byte> cut(blob.begin(),
                               blob.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)restore_checkpoint(cfg, cut), CheckpointError)
        << "truncated to " << len << " of " << blob.size() << " bytes";
  }
}

/// `blob` (a current checkpoint of an Analytic `cfg`) cut back to the v3
/// layout: without the trailing fitness state (u32 begin, u32 end, u8 mode,
/// u32 cols, then the ssets^2 matrix doubles), version field set to 3.
std::vector<std::byte> as_v3(const SimConfig& cfg,
                             std::vector<std::byte> blob) {
  blob.resize(blob.size() - 13 - 8 * cfg.ssets * cfg.ssets);
  const std::uint32_t v3 = 3;
  std::memcpy(blob.data() + 8, &v3, sizeof v3);  // after the magic
  return blob;
}

TEST(Checkpoint, RejectsUnsupportedVersionWithClearMessage) {
  const auto cfg = config(FitnessMode::Analytic);
  Engine engine(cfg);
  engine.run(5);
  const auto blob = save_checkpoint(engine);
  for (const std::uint32_t version : {kCheckpointVersion + 7, 2u}) {
    auto bad = version == 2 ? as_v3(cfg, blob) : blob;
    std::memcpy(bad.data() + 8, &version, sizeof version);  // after the magic
    try {
      (void)restore_checkpoint(cfg, bad);
      FAIL() << "expected CheckpointError for version " << version;
    } catch (const CheckpointError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("version " + std::to_string(version)),
                std::string::npos)
          << what;
    }
  }
}

TEST(Checkpoint, V3CheckpointResumesByReevaluating) {
  // A v3 blob carries no fitness state; it still resumes, and the engine
  // evaluates every pair as v3 restores always did.
  const auto cfg = config(FitnessMode::Analytic);
  Engine engine(cfg);
  engine.run(30);
  const auto v3 = as_v3(cfg, save_checkpoint(engine));
  expect_same_fitness(restore_checkpoint(cfg, v3), reevaluated(cfg, engine));
  auto trailing = v3;
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)restore_checkpoint(cfg, trailing), CheckpointError);
}

TEST(Checkpoint, V4CheckpointResumesFromItsMatrix) {
  // A v4 blob also carried each row's fitness beside the matrix. It is
  // read and dropped: the restored block re-sums the matrix.
  const auto cfg = config(FitnessMode::Analytic);
  Engine engine(cfg);
  engine.run(30);
  auto v4 = save_checkpoint(engine);
  const std::vector<double> stale(cfg.ssets, -1.0);
  const auto at = v4.end() - 8 * cfg.ssets * cfg.ssets;  // the matrix
  v4.insert(at, reinterpret_cast<const std::byte*>(stale.data()),
            reinterpret_cast<const std::byte*>(stale.data() + stale.size()));
  const std::uint32_t four = 4;
  std::memcpy(v4.data() + 8, &four, sizeof four);  // after the magic
  expect_same_fitness(restore_checkpoint(cfg, v4), engine);
}

TEST(Checkpoint, CorruptStrategyLengthDoesNotOverAllocate) {
  // A hostile strategy length field must fail bounds-first, not attempt a
  // multi-gigabyte allocation.
  const auto cfg = config(FitnessMode::Analytic);
  Engine engine(cfg);
  engine.run(5);
  auto blob = save_checkpoint(engine);
  const std::uint32_t huge = 0x7fffffff;
  // The first strategy's length prefix sits right after the fixed header:
  // magic + version + fingerprint + generation + nature rng + planned +
  // population size.
  const std::size_t header = 8 + 4 + 8 + 8 + 4 * 8 + 8 + 4;
  std::memcpy(blob.data() + header, &huge, sizeof huge);
  EXPECT_THROW((void)restore_checkpoint(cfg, blob), CheckpointError);
}

TEST(Checkpoint, ResumeWorksOnStructuredPopulations) {
  auto cfg = config(FitnessMode::Analytic);
  cfg.ssets = 18;
  cfg.interaction.kind = InteractionSpec::Kind::Ring;
  cfg.interaction.ring_k = 2;
  cfg.generations = 100;
  expect_same_trajectory(cfg, 50);
}

TEST(Checkpoint, ResumeWorksUnderMoranRule) {
  auto cfg = config(FitnessMode::Analytic);
  cfg.update_rule = pop::UpdateRule::Moran;
  cfg.generations = 100;
  expect_same_trajectory(cfg, 50);
}

TEST(Checkpoint, FileRoundTrip) {
  const auto cfg = config(FitnessMode::Analytic);
  Engine engine(cfg);
  engine.run(40);
  const std::string path = ::testing::TempDir() + "egt_ckpt.bin";
  write_checkpoint_file(engine, path);
  Engine restored = read_checkpoint_file(cfg, path);
  EXPECT_EQ(restored.generation(), 40u);
  EXPECT_EQ(restored.population().table_hash(),
            engine.population().table_hash());
  std::remove(path.c_str());
}

TEST(Checkpoint, FingerprintSensitivity) {
  auto cfg = config(FitnessMode::Analytic);
  const auto base = config_fingerprint(cfg);
  cfg.pc_rate += 0.01;
  EXPECT_NE(config_fingerprint(cfg), base);
  cfg = config(FitnessMode::Analytic);
  cfg.memory = 2;
  EXPECT_NE(config_fingerprint(cfg), base);
  cfg = config(FitnessMode::Analytic);
  cfg.game.payoff.temptation = 5.0;
  EXPECT_NE(config_fingerprint(cfg), base);
  // The fitness *mode* is an implementation choice, not dynamics: for
  // deterministic games trajectories agree across modes, so the
  // fingerprint deliberately excludes it. A resume under another mode
  // re-evaluates instead of adopting the saved fitness state (see
  // ResumeUnderAnotherFitnessModeReevaluates).
  EXPECT_EQ(config_fingerprint(config(FitnessMode::Sampled)),
            config_fingerprint(config(FitnessMode::Analytic)));
  // Structure and update rule ARE dynamics.
  cfg = config(FitnessMode::Analytic);
  cfg.interaction.kind = InteractionSpec::Kind::Ring;
  cfg.interaction.ring_k = 2;
  EXPECT_NE(config_fingerprint(cfg), base);
  cfg = config(FitnessMode::Analytic);
  cfg.update_rule = pop::UpdateRule::Moran;
  EXPECT_NE(config_fingerprint(cfg), base);
}

}  // namespace
}  // namespace egt::core
