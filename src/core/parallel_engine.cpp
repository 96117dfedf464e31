#include "core/parallel_engine.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <optional>

#include "core/engine.hpp"
#include "core/fitness.hpp"
#include "obs/metrics_observer.hpp"
#include "obs/metrics_stream.hpp"
#include "obs/tracer.hpp"
#include "par/partition.hpp"
#include "util/check.hpp"

namespace egt::core {

namespace {

constexpr int kTagFitTeacher = 1;
constexpr int kTagFitLearner = 2;

std::vector<std::byte> pack(std::span<const double> values) {
  std::vector<std::byte> bytes(values.size() * sizeof(double));
  if (!values.empty()) std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

// One rank of run_parallel: the tree-bcast transport (PaperBcast) or the
// replicated-Nature transport (every rank replays Nature's RNG).
class ParallelRank final : public GenerationTransport {
 public:
  ParallelRank(par::Comm& comm, const SimConfig& config,
               obs::MetricsRegistry& registry)
      : comm_(comm),
        config_(config),
        registry_(registry),
        rank_(comm.rank()),
        replay_(config.comm_pattern == CommPattern::ReplicatedNature),
        // Every rank derives the identical initial state and interaction
        // graph from the seed alone — the paper's "each node can calculate
        // its position ... individually".
        pop_(make_initial_population(config)),
        graph_(make_shared_graph(config)),
        part_(config.ssets, static_cast<std::uint64_t>(comm.size())),
        fit_(config, static_cast<pop::SSetId>(part_.begin(rank_)),
             static_cast<pop::SSetId>(part_.end(rank_)), graph_, &registry),
        // Event counters live on rank 0 only, so merged totals match the
        // serial engine's.
        ins_(&registry, /*events=*/rank_ == 0),
        // Matches the serial engine: zero until the first generation runs.
        snapshot_(fit_.block().size(), 0.0) {
    ins_.initialize(fit_, pop_, tally_);
    if (replay_ || rank_ == 0) nature_.emplace(config.nature_config(graph_));
  }

  /// Run every generation; rank 0 returns the final population.
  std::optional<pop::Population> run(const ParallelRunOptions& options) {
    const GenerationContext ctx{*this, pop_, ins_,
                                nature_ ? &*nature_ : nullptr,
                                rank_ == 0 ? options.trace : nullptr, false};
    obs::Heartbeat heartbeat(options.progress_interval_seconds);
    for (std::uint64_t gen = 0; gen < config_.generations; ++gen) {
      run_generation(ctx, gen);
      if (options.metrics_stream != nullptr &&
          options.metrics_stream->wants(gen)) {
        // Every rank owns a block of the fitness vector; reduce the block
        // sums so the streamed mean is the global one.
        double local = 0.0;
        for (const double f : fit_.block()) local += f;
        const double total =
            comm_.reduce_scalar(local, par::Comm::ReduceOp::Sum, 0);
        if (rank_ == 0) {
          options.metrics_stream->on_generation(
              gen, pop_, registry_, total / static_cast<double>(config_.ssets));
        }
      }
      if (options.progress && rank_ == 0) {
        heartbeat.tick(gen + 1, config_.generations);
      }
    }
    // The final fitness, as of the top of the last generation (the values
    // the serial engine leaves in its population).
    const std::vector<double> final_fit =
        assemble(comm_.gather(pack(snapshot_), 0));
    if (rank_ != 0) return std::nullopt;
    std::ranges::copy(final_fit, pop_.mutable_fitness().begin());
    return std::move(pop_);
  }

  void play(std::uint64_t gen) override {
    fit_.begin_generation(pop_, gen);
    snapshot_.assign(fit_.block().begin(), fit_.block().end());
  }

  std::uint64_t games_played() const override { return fit_.games_played(); }

  // Tree-bcast: rank 0's Nature plans and decides, the tree carries the
  // result; replicated Nature already holds it on every rank.
  void share_plan(std::uint64_t, pop::GenerationPlan& plan) override {
    if (replay_) return;
    std::vector<std::byte> wire;
    if (rank_ == 0) wire = encode_generation_plan(plan);
    comm_.bcast(wire, 0);
    if (rank_ != 0) plan = decode_generation_plan(wire);
  }

  std::array<double, 2> pc_fitness(const pop::GenerationPlan::Pc& pc) override {
    // Tree-bcast: the owners return fitness to the Nature Agent
    // point-to-point (the paper's torus sends). Replicated: allreduce.
    std::array<double, 2> pair{};
    for (int k = 0; k < 2; ++k) {
      const pop::SSetId i = k == 0 ? pc.teacher : pc.learner;
      const int src = static_cast<int>(part_.owner(i));
      const int tag = k == 0 ? kTagFitTeacher : kTagFitLearner;
      if (src == rank_ && (replay_ || rank_ == 0)) {
        pair[k] = fit_.fitness(i);
      } else if (src == rank_) {
        comm_.send_value(0, tag, fit_.fitness(i));
      } else if (!replay_ && rank_ == 0) {
        pair[k] = comm_.recv_value<double>(src, tag);
      }
    }
    if (!replay_) return pair;
    const auto sum =
        comm_.allreduce({pair[0], pair[1]}, par::Comm::ReduceOp::Sum);
    return {sum[0], sum[1]};
  }

  void share_adoption(bool& adopted) override {
    if (replay_) return;
    std::uint8_t wire = adopted ? 1 : 0;
    comm_.bcast_value(wire, 0);
    adopted = wire != 0;
  }

  std::span<const double> gather_fitness(const pop::GenerationPlan&,
                                         const GenerationDecision&) override {
    full_ = assemble(replay_ ? comm_.allgather(pack(fit_.block()))
                             : comm_.gather(pack(fit_.block()), 0));
    return full_;
  }

  void share_pick(pop::MoranPick& pick) override {
    if (replay_) return;
    std::uint64_t wire =
        (static_cast<std::uint64_t>(pick.reproducer) << 32) | pick.dying;
    comm_.bcast_value(wire, 0);
    pick = {static_cast<pop::SSetId>(wire >> 32),
            static_cast<pop::SSetId>(wire & 0xffffffffu)};
  }

  void strategy_changed(pop::SSetId k, const pop::Population& pop,
                        std::uint64_t gen) override {
    fit_.strategy_changed(k, pop, gen);
  }

  void finish(const GenerationOutcome&) override { ins_.account(fit_, tally_); }

 private:
  /// Per-rank blocks (a gather's result; empty off the root) as one
  /// SSet-indexed vector.
  std::vector<double> assemble(
      const std::vector<std::vector<std::byte>>& blocks) const {
    std::vector<double> full(blocks.empty() ? 0 : config_.ssets, 0.0);
    for (std::size_t r = 0; r < blocks.size(); ++r) {
      std::memcpy(full.data() + part_.begin(r), blocks[r].data(),
                  blocks[r].size());
    }
    return full;
  }

  par::Comm& comm_;
  const SimConfig& config_;
  obs::MetricsRegistry& registry_;
  const int rank_;
  const bool replay_;
  pop::Population pop_;
  std::shared_ptr<const pop::InteractionGraph> graph_;
  par::BlockPartition part_;
  BlockFitness fit_;
  EngineInstruments ins_;
  WorkTally tally_;
  std::optional<pop::NatureAgent> nature_;
  std::vector<double> snapshot_;  // top-of-generation block fitness
  std::vector<double> full_;      // the Moran gather's assembly
};

}  // namespace

ParallelResult run_parallel(const SimConfig& config, int nranks) {
  return run_parallel(config, nranks, ParallelRunOptions{});
}

ParallelResult run_parallel(const SimConfig& config, int nranks,
                            const ParallelRunOptions& options) {
  config.validate();
  EGT_REQUIRE_MSG(nranks >= 1, "need at least one rank");
  EGT_REQUIRE_MSG(static_cast<pop::SSetId>(nranks) <= config.ssets,
                  "more ranks than SSets is not supported by the block "
                  "partition (use the performance simulator for that regime)");

  std::optional<pop::Population> final_pop;
  // One registry per rank: no cross-rank contention inside the timed run.
  std::deque<obs::MetricsRegistry> rank_registries(
      static_cast<std::size_t>(nranks));
  const par::TrafficReport traffic = par::run_ranks_traced(
      nranks, [&](par::Comm& comm) {
        // Flight-recorder attribution: this thread's events land on
        // pid = rank.
        const obs::TraceRankScope trace_rank(comm.rank());
        obs::Tracer::set_thread_name("rank.main");
        auto pop =
            ParallelRank(comm, config,
                         rank_registries[static_cast<std::size_t>(comm.rank())])
                .run(options);
        if (pop) final_pop = std::move(pop);
      });
  EGT_ASSERT(final_pop.has_value());

  obs::MetricsRegistry merged;
  for (const auto& reg : rank_registries) merged.merge(reg);
  merged.gauge("engine.ranks").set(static_cast<double>(nranks));
  if (options.metrics != nullptr) options.metrics->merge(merged);

  return ParallelResult{std::move(*final_pop), traffic, config.generations,
                        merged.snapshot()};
}

}  // namespace egt::core
