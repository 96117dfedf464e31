#include "core/checkpoint.hpp"

#include <cstring>

#include "core/checkpoint_store.hpp"
#include "core/engine.hpp"
#include "core/wire.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace egt::core {

namespace {

constexpr std::uint64_t kMagic = 0x4547544353494d31ULL;  // "EGTCSIM1"

}  // namespace

std::uint64_t config_fingerprint(const SimConfig& config) {
  std::uint64_t h = util::mix64(config.seed + 1);
  auto mixin = [&h](std::uint64_t v) { h = util::mix64(h ^ v); };
  mixin(static_cast<std::uint64_t>(config.memory));
  mixin(config.ssets);
  mixin(config.game.rounds);
  std::uint64_t bits;
  auto mixd = [&](double d) {
    std::memcpy(&bits, &d, sizeof bits);
    mixin(bits);
  };
  mixd(config.game.noise);
  mixd(config.game.payoff.reward);
  mixd(config.game.payoff.sucker);
  mixd(config.game.payoff.temptation);
  mixd(config.game.payoff.punishment);
  // Wire v3: the full game spec (kind, action count, play mode, n-way /
  // bimatrix tables, public-goods parameters) via its canonical hash.
  mixin(config.game.matrix_hash());
  mixd(config.pc_rate);
  mixd(config.mutation_rate);
  mixd(config.beta);
  mixin(config.require_teacher_better ? 1 : 0);
  mixin(static_cast<std::uint64_t>(config.space));
  mixin(static_cast<std::uint64_t>(config.update_rule));
  mixin(static_cast<std::uint64_t>(config.mutation_kernel));
  mixin(config.mutation_bits);
  mixd(config.mutation_sigma);
  mixin(static_cast<std::uint64_t>(config.fitness_scale));
  mixin(static_cast<std::uint64_t>(config.interaction.kind));
  mixin(config.interaction.ring_k);
  mixin(config.interaction.lattice_width);
  mixin(config.interaction.moore ? 1 : 0);
  return h;
}

std::vector<std::byte> save_checkpoint(const Engine& engine) {
  wire::Writer w;
  w.u64(kMagic);
  w.u32(kCheckpointVersion);
  w.u64(config_fingerprint(engine.config()));
  w.u64(engine.generation());
  wire::put_nature(w, engine.nature_agent().save_state());
  const auto& pop = engine.population();
  w.u32(pop.size());
  for (pop::SSetId i = 0; i < pop.size(); ++i) {
    w.bytes(pop.strategy(i).serialize());
  }
  engine.fitness_block().state().encode(w);
  return w.take();
}

namespace {

Engine::RestoredState decode_checkpoint(const SimConfig& config,
                                        const std::vector<std::byte>& blob) {
  wire::Reader r(blob, "checkpoint");
  const std::uint32_t version = r.header(
      kMagic, "checkpoint", kOldestCheckpointVersion, kCheckpointVersion);
  if (r.u64("config fingerprint") != config_fingerprint(config)) {
    throw CheckpointError(
        "checkpoint was written under a different configuration");
  }
  const std::uint64_t generation = r.u64("generation");
  const pop::NatureAgent::State nature = wire::get_nature(r);
  const std::uint32_t ssets = r.u32("population size");
  if (ssets != config.ssets) {
    throw CheckpointError("checkpoint population size mismatch (blob has " +
                          std::to_string(ssets) + " SSets, config wants " +
                          std::to_string(config.ssets) + ")");
  }
  std::vector<game::Strategy> strategies;
  strategies.reserve(ssets);
  for (std::uint32_t i = 0; i < ssets; ++i) {
    try {
      strategies.push_back(game::Strategy::deserialize(r.bytes("strategy")));
    } catch (const CheckpointError&) {
      throw;
    } catch (const std::exception& e) {
      // Strategy::deserialize validates its own layout; surface its
      // complaint as a checkpoint decode failure.
      r.fail(std::string("strategy ") + std::to_string(i) + ": " + e.what());
    }
  }
  // A v3 blob ends here. Without a state — or with one saved under
  // another fitness mode — the engine re-evaluates every pair.
  std::optional<BlockFitness::State> fitness;
  if (version > kOldestCheckpointVersion) {
    fitness = BlockFitness::State::decode(r, /*with_fitness=*/version == 4);
    if (fitness->mode != config.fitness_mode) fitness.reset();
  }
  r.expect_exhausted();
  return Engine::RestoredState{generation, nature,
                               pop::Population(std::move(strategies)),
                               std::move(fitness)};
}

}  // namespace

Engine restore_checkpoint(const SimConfig& config,
                          const std::vector<std::byte>& blob,
                          obs::MetricsRegistry* metrics) {
  return Engine(config, decode_checkpoint(config, blob), metrics);
}

void write_checkpoint_file(const Engine& engine, const std::string& path) {
  auto blob = save_checkpoint(engine);
  append_crc_footer(blob);
  atomic_write_file(path, blob);
}

Engine read_checkpoint_file(const SimConfig& config, const std::string& path,
                            obs::MetricsRegistry* metrics) {
  return restore_checkpoint(config, checked_payload(read_file_bytes(path)),
                            metrics);
}

}  // namespace egt::core
