#include "machine/costmodel.hpp"

#include <vector>

#include "game/strategy.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace egt::machine {

RoundCostTable default_round_costs() {
  // Reference calibration of this repository's kernel (calibrate_host with
  // default arguments) on the development host (x86-64, ~3 GHz). Indexed
  // lookup is nearly flat in memory depth; the paper's linear find_state
  // grows with the state count, which is exactly the growth §VI-B.1 blames
  // for the Table VI runtimes.
  RoundCostTable t;
  t.indexed_ns = {2.77, 2.87, 2.85, 2.80, 3.06, 2.92, 3.09};
  t.linear_ns = {6.11, 6.81, 10.94, 43.03, 72.80, 265.28, 619.31};
  return t;
}

RoundCostTable calibrate_host(std::uint64_t sample_rounds, std::uint64_t seed) {
  RoundCostTable t;
  util::Xoshiro256 rng(seed);
  for (int memory = 0; memory <= game::kMaxMemory; ++memory) {
    // Linear search over 4^n states is slow for large n; shrink the sample
    // so calibration stays interactive while keeping timing noise low.
    const std::uint64_t linear_rounds =
        std::max<std::uint64_t>(20'000, sample_rounds >> (2 * memory));
    for (const auto mode :
         {game::LookupMode::Indexed, game::LookupMode::LinearSearch}) {
      const std::uint64_t want =
          mode == game::LookupMode::Indexed ? sample_rounds : linear_rounds;
      game::IpdParams params;
      params.rounds = 4096;
      // Execution noise keeps the pairs off the noise-free cycle walker,
      // which skips rounds: every round is played and timed.
      params.noise = 0.02;
      const game::IpdEngine engine(memory, params, mode);
      const std::uint64_t games = std::max<std::uint64_t>(1, want / params.rounds);

      // Random pure pairs, the dominant workload of the scaling studies,
      // drawn before the timer starts.
      std::vector<game::PureStrategy> players;
      players.reserve(2 * games);
      for (std::uint64_t k = 0; k < 2 * games; ++k) {
        players.push_back(game::PureStrategy::random(memory, rng));
      }
      double sink = 0.0;
      util::Timer timer;
      for (std::uint64_t g = 0; g < games; ++g) {
        util::StreamRng stream(seed, util::stream_key(g, memory));
        sink += engine.play(players[2 * g], players[2 * g + 1], stream).payoff_a;
      }
      const double ns =
          timer.nanos() / static_cast<double>(games * params.rounds);
      if (sink < 0) std::abort();  // keep `sink` alive
      const auto m = static_cast<std::size_t>(memory);
      if (mode == game::LookupMode::Indexed) {
        t.indexed_ns[m] = ns;
      } else {
        t.linear_ns[m] = ns;
      }
    }
  }
  return t;
}

double strategy_table_bytes(std::uint64_t ssets, int memory, bool pure) {
  const double per_state = pure ? 1.0 / 8.0 : sizeof(double);
  return static_cast<double>(ssets) * game::num_states(memory) * per_state;
}

int max_memory_steps(const MachineSpec& spec, std::uint64_t ssets,
                     bool pure) {
  int best = -1;
  for (int memory = 0; memory <= game::kMaxMemory; ++memory) {
    if (strategy_table_bytes(ssets, memory, pure) <
        spec.memory_per_node_bytes) {
      best = memory;
    }
  }
  return best;
}

}  // namespace egt::machine
