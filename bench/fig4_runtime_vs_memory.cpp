// Figure 4 reproduction: overall runtime as a function of memory steps.
//
// The paper attributes the growth to state identification: agents find the
// current state by scanning the state list, and the list has 4^n entries.
// We show both the paper's linear find_state (dramatic growth) and this
// library's O(1) indexed lookup (nearly flat) — measured for real on this
// host and predicted for BG/L.
#include <memory>

#include "bench_common.hpp"

#include "game/ipd.hpp"
#include "game/strategy.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

double measure_round_ns(int memory, egt::game::LookupMode mode,
                        std::uint64_t rounds_budget) {
  using namespace egt;
  game::IpdParams params;
  params.rounds = 2048;
  const game::IpdEngine engine(memory, params, mode);
  util::Xoshiro256 rng(17 + static_cast<unsigned>(memory));
  const std::uint64_t games =
      std::max<std::uint64_t>(1, rounds_budget / params.rounds);
  double sink = 0.0;
  util::Timer t;
  for (std::uint64_t g = 0; g < games; ++g) {
    const auto a = game::PureStrategy::random(memory, rng);
    const auto b = game::PureStrategy::random(memory, rng);
    sink += engine.play(a, b, util::StreamRng(1, g)).payoff_a;
  }
  const double ns = t.nanos() / static_cast<double>(games * params.rounds);
  if (sink < 0) std::abort();
  return ns;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace egt;
  util::Cli cli("fig4_runtime_vs_memory",
                "Fig. 4: runtime growth with memory steps");
  auto budget = cli.opt<std::int64_t>(
      "rounds", 400000, "host-measured rounds per (memory, mode) cell");
  auto calibrate = cli.flag("calibrate", "re-measure kernel costs first");
  auto csv_path = cli.opt<std::string>("csv", "", "also write CSV here");
  cli.parse(argc, argv);

  const auto costs = bench::resolve_costs(*calibrate);
  const machine::PerfSimulator sim(machine::bluegene_l(), costs);

  machine::Workload w;
  w.ssets = 1024;
  w.generations = 1000;
  w.pc_rate = 0.01;

  bench::print_header(
      "Figure 4 — runtime vs memory steps",
      "host ns/round measured live; BG/L full-run seconds from the model "
      "(1,024 SSets, 1,000 generations, 2,048 procs)");

  std::unique_ptr<util::CsvWriter> csv;
  if (!csv_path->empty()) {
    csv = std::make_unique<util::CsvWriter>(
        *csv_path, std::vector<std::string>{
                       "memory", "host_linear_ns", "host_indexed_ns",
                       "bgl_linear_seconds", "bgl_indexed_seconds"});
  }

  util::TextTable table({"memory", "host linear ns/round",
                         "host indexed ns/round", "BG/L linear (s)",
                         "BG/L indexed (s)"});
  for (int memory = 1; memory <= 6; ++memory) {
    // Linear search is slow at deep memories; shrink its budget.
    const auto linear_budget = std::max<std::uint64_t>(
        20000, static_cast<std::uint64_t>(*budget) >> (2 * (memory - 1)));
    const double lin =
        measure_round_ns(memory, game::LookupMode::LinearSearch, linear_budget);
    const double idx = measure_round_ns(
        memory, game::LookupMode::Indexed,
        static_cast<std::uint64_t>(*budget));
    w.memory = memory;
    const double bgl_lin =
        sim.simulate(w, 2048, game::LookupMode::LinearSearch).total_seconds;
    const double bgl_idx =
        sim.simulate(w, 2048, game::LookupMode::Indexed).total_seconds;
    table.add_row("memory-" + std::to_string(memory),
                  {lin, idx, bgl_lin, bgl_idx});
    if (csv) {
      csv->row({static_cast<double>(memory), lin, idx, bgl_lin, bgl_idx});
    }
  }
  table.print(std::cout);
  if (*calibrate) {
    // The model's round costs: walked rounds (2% noise), unlike the live
    // columns, whose noise-free pure pairs take the cycle walker's closed
    // form on the indexed path.
    std::cout << "\nmodel round costs (calibrate_host, 2% noise), ns/round "
                 "for memory-1..6:\n  indexed";
    for (int m = 1; m <= 6; ++m) std::cout << ' ' << costs.indexed_ns[m];
    std::cout << "\n  linear ";
    for (int m = 1; m <= 6; ++m) std::cout << ' ' << costs.linear_ns[m];
    std::cout << '\n';
  }

  std::cout << "\npaper explanation (§VI-B.1): the increase comes from "
               "identifying the state, not from the strategy lookup — the "
               "indexed column is the ablation proving it.\n";
  return 0;
}
