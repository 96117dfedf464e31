// Figure 4 reproduction: overall runtime as a function of memory steps.
//
// The paper attributes the growth to state identification: agents find the
// current state by scanning the state list, and the list has 4^n entries.
// We show both the paper's linear find_state (dramatic growth) and this
// library's O(1) indexed lookup (nearly flat) — measured for real on this
// host and predicted for BG/L.
#include <memory>

#include "bench_common.hpp"

#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace egt;
  util::Cli cli("fig4_runtime_vs_memory",
                "Fig. 4: runtime growth with memory steps");
  auto budget = cli.opt<std::int64_t>(
      "rounds", 400000, "host-measured rounds per (memory, mode) cell");
  auto calibrate = cli.flag(
      "calibrate", "model with the host-measured costs, not the baked-in ones");
  auto csv_path = cli.opt<std::string>("csv", "", "also write CSV here");
  cli.parse(argc, argv);

  // The live columns time walked rounds: calibrate_host plays pairs under
  // 2% noise, which keeps them off the cycle walker's closed form.
  const machine::RoundCostTable live =
      machine::calibrate_host(static_cast<std::uint64_t>(*budget));
  const machine::PerfSimulator sim(
      machine::bluegene_l(),
      *calibrate ? live : machine::default_round_costs());

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
    const double lin = live.ns(memory, game::LookupMode::LinearSearch);
    const double idx = live.ns(memory, game::LookupMode::Indexed);
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

  std::cout << "\npaper explanation (§VI-B.1): the increase comes from "
               "identifying the state, not from the strategy lookup — the "
               "indexed column is the ablation proving it.\n";
  return 0;
}
