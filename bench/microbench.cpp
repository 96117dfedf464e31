// Google-benchmark microbenchmarks of the hot kernels: state push, IPD
// rounds by memory depth and lookup mode, the sampled lane kernel,
// analytic evaluators, Fermi rule, and the mini-runtime's broadcast.
#include <benchmark/benchmark.h>

#include "core/engine.hpp"
#include "core/fitness.hpp"
#include "game/batch.hpp"
#include "game/ipd.hpp"
#include "game/markov.hpp"
#include "game/named.hpp"
#include "par/runtime.hpp"
#include "pop/fermi.hpp"
#include "util/rng.hpp"

namespace {

using namespace egt;

void BM_StatePush(benchmark::State& state) {
  const game::StateCodec codec(static_cast<int>(state.range(0)));
  game::State s = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    s = codec.push(s, game::from_bit(static_cast<int>(i & 1)),
                   game::from_bit(static_cast<int>((i >> 1) & 1)));
    benchmark::DoNotOptimize(s);
    ++i;
  }
}
BENCHMARK(BM_StatePush)->Arg(1)->Arg(6);

void BM_IpdRound(benchmark::State& state) {
  const int memory = static_cast<int>(state.range(0));
  const auto mode = state.range(1) == 0 ? game::LookupMode::Indexed
                                        : game::LookupMode::LinearSearch;
  game::IpdParams params;
  params.rounds = 512;
  const game::IpdEngine engine(memory, params, mode);
  util::Xoshiro256 rng(1);
  const auto a = game::PureStrategy::random(memory, rng);
  const auto b = game::PureStrategy::random(memory, rng);
  std::uint64_t g = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.play(a, b, util::StreamRng(0, ++g)).payoff_a);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          params.rounds);
}
BENCHMARK(BM_IpdRound)
    ->Args({1, 0})
    ->Args({3, 0})
    ->Args({6, 0})
    ->Args({1, 1})
    ->Args({3, 1})
    ->Args({6, 1});

void BM_MixedIpdRound(benchmark::State& state) {
  game::IpdParams params;
  params.rounds = 512;
  params.noise = 0.05;
  const game::IpdEngine engine(1, params);
  const game::Strategy a = game::named::generous_tit_for_tat(1, 0.3);
  const game::Strategy b = game::named::random_strategy(1, 0.5);
  std::uint64_t g = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.play(a, b, util::StreamRng(0, ++g)).payoff_a);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          params.rounds);
}
BENCHMARK(BM_MixedIpdRound);

// The sampled lane kernel at the paper's setting (memory 6, 200 rounds,
// 2% noise): a row's batch of 255 games, and a lone game; the third case
// is a lone mixed memory-6 game. Items are games, so the report is the
// route's ns/game.
void BM_StreamGames(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const bool mixed = state.range(1) != 0;
  game::IpdParams params;
  params.noise = 0.02;
  util::Xoshiro256 rng(4);
  std::vector<game::Strategy> players;
  for (std::size_t k = 0; k <= batch; ++k) {
    if (mixed) {
      players.emplace_back(game::MixedStrategy::random(6, rng));
    } else {
      players.emplace_back(game::PureStrategy::random(6, rng));
    }
  }
  std::vector<game::batch::StreamGame> games;
  games.reserve(batch);
  std::vector<game::GameResult> out(batch);
  std::uint64_t g = 0;
  for (auto _ : state) {
    games.clear();
    for (std::size_t k = 0; k < batch; ++k) {
      games.push_back({game::batch::Player::of(players[0]),
                       game::batch::Player::of(players[k + 1]),
                       util::StreamRng(0, ++g)});
    }
    game::batch::play_stream_games(games, 6, params, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_StreamGames)->Args({255, 0})->Args({1, 0})->Args({1, 1});

// The payoff-only twin the fitness tier runs (a pure B through its
// mirrored table), on the same shapes as BM_StreamGames.
void BM_StreamPayoffs(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const bool mixed = state.range(1) != 0;
  game::IpdParams params;
  params.noise = 0.02;
  util::Xoshiro256 rng(4);
  std::vector<game::Strategy> players;
  game::batch::MirrorTables mirrors(6);
  for (std::size_t k = 0; k <= batch; ++k) {
    if (mixed) {
      players.emplace_back(game::MixedStrategy::random(6, rng));
    } else {
      players.emplace_back(game::PureStrategy::random(6, rng));
      mirrors.set(k, players.back().as_pure());
    }
  }
  const auto b_player = [&](std::size_t k) {
    return mixed ? game::batch::MirroredPlayer::of(players[k].as_mixed())
                 : mirrors[k];
  };
  std::vector<game::batch::PayoffGame> games;
  games.reserve(batch);
  std::vector<double> out(batch);
  std::uint64_t g = 0;
  for (auto _ : state) {
    games.clear();
    for (std::size_t k = 0; k < batch; ++k) {
      games.push_back({game::batch::Player::of(players[0]), b_player(k + 1),
                       util::StreamRng(0, ++g)});
    }
    game::batch::payoff_stream_games(games, 6, params, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_StreamPayoffs)->Args({255, 0})->Args({1, 0})->Args({1, 1});

void BM_ExactPureGame(benchmark::State& state) {
  const int memory = static_cast<int>(state.range(0));
  util::Xoshiro256 rng(2);
  const auto a = game::PureStrategy::random(memory, rng);
  const auto b = game::PureStrategy::random(memory, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        game::markov::exact_pure_game(a, b, game::paper_payoff(), 200)
            .payoff_a);
  }
}
BENCHMARK(BM_ExactPureGame)->Arg(1)->Arg(6);

void BM_ExpectedGameMem1(benchmark::State& state) {
  util::Xoshiro256 rng(3);
  const game::Strategy a = game::MixedStrategy::random(1, rng);
  const game::Strategy b = game::MixedStrategy::random(1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        game::markov::expected_game_mem1(a, b, game::paper_payoff(), 200, 0.05)
            .payoff_a);
  }
}
BENCHMARK(BM_ExpectedGameMem1);

void BM_Fermi(benchmark::State& state) {
  double x = 0.0;
  for (auto _ : state) {
    x += 1e-9;
    benchmark::DoNotOptimize(pop::fermi_probability(3.0, x, 1.0));
  }
}
BENCHMARK(BM_Fermi);

void BM_GenerationFitnessFullBlock(benchmark::State& state) {
  core::SimConfig cfg;
  cfg.ssets = 32;
  cfg.memory = 1;
  cfg.fitness_mode = core::FitnessMode::Sampled;
  const auto pop = core::make_initial_population(cfg);
  core::BlockFitness fit(cfg, 0, cfg.ssets);
  std::uint64_t gen = 0;
  for (auto _ : state) {
    fit.begin_generation(pop, ++gen);
    benchmark::DoNotOptimize(fit.block().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          cfg.ssets * (cfg.ssets - 1));
}
BENCHMARK(BM_GenerationFitnessFullBlock);

void BM_RuntimeBcast(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  const std::size_t bytes = 512;  // a memory-six pure strategy
  for (auto _ : state) {
    par::run_ranks(nranks, [&](par::Comm& comm) {
      std::vector<std::byte> payload;
      if (comm.rank() == 0) payload.resize(bytes);
      for (int i = 0; i < 16; ++i) comm.bcast(payload, 0);
    });
  }
}
BENCHMARK(BM_RuntimeBcast)->Arg(2)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
