// One generation of the paper's protocol (§IV, §V-B), written once.
//
// run_generation drives one rank through a generation in the fault-free
// order — game play → plan → PC fitness return → adoption decision →
// apply → Moran gather → pick → apply → mutation → counters → trace point
// — and a GenerationTransport says how each step travels:
//
//   local              core::Engine: one process, nothing travels.
//   tree-bcast         run_parallel, PaperBcast: rank 0 is Nature; plan and
//                      decisions go over the binomial tree, the PC pair's
//                      owners return fitness point-to-point.
//   replicated-Nature  run_parallel, ReplicatedNature: every rank replays
//                      Nature; the PC pair is allreduced, Moran allgathered.
//   ft-star            run_parallel_ft's master: a point-to-point plan/ack
//                      round, fitness requests, and a write-ahead commit
//                      (decision-log replication, then the final DECIDE).
//
// EngineInstruments owns what every engine reports: the five phase.*
// histograms, the seven engine.* counters and the pairs/games accounting.
// Event counters are registered on one rank only (rank 0, or the acting
// ft master), so merged totals equal the serial engine's.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "core/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "pop/nature.hpp"
#include "pop/population.hpp"

namespace egt::core {

class BlockFitness;

/// The merged per-run event/work counters every engine reports.
struct EngineCounters {
  std::uint64_t generations = 0;
  std::uint64_t pc_events = 0;
  std::uint64_t adoptions = 0;
  std::uint64_t moran_events = 0;
  std::uint64_t mutations = 0;
  std::uint64_t pairs_evaluated = 0;
  std::uint64_t games_played = 0;

  bool operator==(const EngineCounters&) const = default;
};

/// The seven engine.* counters of a metrics snapshot.
EngineCounters counters_from(const obs::MetricsSnapshot& s);
EngineCounters counters_add(const EngineCounters& a, const EngineCounters& b);
/// "generations=G pc_events=P ..." for failure messages.
std::string to_string(const EngineCounters& c);

/// Pairs/games of one fitness block already moved into the counters.
struct WorkTally {
  std::uint64_t pairs = 0;
  std::uint64_t games = 0;
};

/// A phase timer and its flight-recorder span over one pair of clock
/// readings: the histogram and the span record the same duration, and
/// the span's own recording cost (a thread's first record attaches its
/// ring slab) lands outside both.
class PhaseScope {
 public:
  PhaseScope(obs::Histogram* h, const char* name)
      : hist_(h),
        start_ns_(obs::Tracer::now_ns()),
        span_(name, obs::kCatPhase, start_ns_) {}
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope() {
    const std::int64_t end_ns = obs::Tracer::now_ns();
    if (hist_ != nullptr) {
      hist_->record_seconds(static_cast<double>(end_ns - start_ns_) * 1e-9);
    }
    span_.finish(end_ns);
  }
  obs::TraceSpan& span() noexcept { return span_; }

 private:
  obs::Histogram* hist_;
  std::int64_t start_ns_;
  obs::TraceSpan span_;
};

/// Phase histograms and engine.* counters, resolved once (lock-free
/// afterwards). Default-constructed = unobserved: every pointer null.
struct EngineInstruments {
  obs::Histogram* game_play = nullptr;
  obs::Histogram* plan = nullptr;
  obs::Histogram* fitness_return = nullptr;
  obs::Histogram* decision = nullptr;
  obs::Histogram* apply = nullptr;
  // Every rank: block sums add up to the serial all-pairs count.
  obs::Counter* pairs = nullptr;
  obs::Counter* games = nullptr;
  // One rank only (count_events).
  obs::Counter* generations = nullptr;
  obs::Counter* pc_events = nullptr;
  obs::Counter* adoptions = nullptr;
  obs::Counter* moran_events = nullptr;
  obs::Counter* mutations = nullptr;

  EngineInstruments() = default;
  /// `events`: this rank also counts events (rank 0 / the ft master).
  EngineInstruments(obs::MetricsRegistry* reg, bool events);
  /// Register the event counters (ft: a standby winning an election).
  void count_events(obs::MetricsRegistry& reg);

  static void inc(obs::Counter* c, std::uint64_t n = 1) {
    if (c != nullptr) c->inc(n);
  }
  /// Move `fit`'s pairs/games growth since `seen` into the counters.
  void account(const BlockFitness& fit, WorkTally& seen) const;
  /// The initial all-pairs evaluation of a cached block, timed and traced
  /// as game play; a Sampled block waits for generation 0's play.
  void initialize(BlockFitness& fit, const pop::Population& pop,
                  WorkTally& seen) const;
};

/// Wire codec of the per-generation event plan (the PaperBcast broadcast
/// payload and the ft PLAN body). Decode throws CheckpointError on any
/// truncation or trailing byte.
std::vector<std::byte> encode_generation_plan(const pop::GenerationPlan& plan);
pop::GenerationPlan decode_generation_plan(const std::vector<std::byte>& in);

/// One generation's decisions, identical on every rank once taken.
struct GenerationDecision {
  std::uint64_t gen = 0;
  bool adopted = false;  ///< PC adoption
  bool has_moran = false;
  pop::MoranPick pick;
};

namespace wire {

/// Nature's state, as every checkpoint-family blob carries it:
/// u64 rng[4], u64 planned.
void put_nature(Writer& w, const pop::NatureAgent::State& s);
pop::NatureAgent::State get_nature(Reader& r);

/// A generation's decision without its generation number (the carrier
/// knows it): u8 adopted, u8 has_moran, u32 reproducer, u32 dying.
void put_decision(Writer& w, const GenerationDecision& d);
GenerationDecision get_decision(Reader& r, std::uint64_t gen);

}  // namespace wire

struct GenerationOutcome {
  pop::GenerationPlan plan;
  GenerationDecision decision;
};

/// How one rank's generation travels. Nature's calls happen in the step,
/// on ranks that hold a Nature Agent; the share_* hooks then deliver the
/// result to every rank (no-ops where every rank already holds it).
/// Transports are never deleted through this interface.
class GenerationTransport {
 public:
  /// Game play: this rank's fitness for generation `gen`.
  virtual void play(std::uint64_t gen) = 0;
  /// Games this rank has played so far (the game-play span's argument).
  virtual std::uint64_t games_played() const = 0;
  virtual void share_plan(std::uint64_t /*gen*/, pop::GenerationPlan&) {}
  /// {teacher, learner} fitness where Nature decides.
  virtual std::array<double, 2> pc_fitness(
      const pop::GenerationPlan::Pc& pc) = 0;
  virtual void share_adoption(bool& /*adopted*/) {}
  /// The post-adoption fitness vector where Nature picks; `d` carries
  /// this generation's adoption.
  virtual std::span<const double> gather_fitness(
      const pop::GenerationPlan& plan, const GenerationDecision& d) = 0;
  virtual void share_pick(pop::MoranPick& /*pick*/) {}
  /// Fold a strategy change into this rank's fitness blocks.
  virtual void strategy_changed(pop::SSetId k, const pop::Population& pop,
                                std::uint64_t gen) = 0;
  /// Every update is applied locally: account the generation's work and
  /// (ft) commit it.
  virtual void finish(const GenerationOutcome& out) = 0;
};

/// What run_generation reads and updates on one rank.
struct GenerationContext {
  GenerationTransport& transport;
  pop::Population& pop;
  const EngineInstruments& ins;
  /// This rank's Nature Agent; null where it does not live.
  pop::NatureAgent* nature = nullptr;
  /// The recording rank's sink (null elsewhere); `hash_fitness` when `pop`
  /// carries the whole fitness vector (the local transport).
  TraceSink* trace = nullptr;
  bool hash_fitness = false;
};

/// Game play, timed and traced (ft workers play outside run_generation).
void play_generation(GenerationTransport& t, const EngineInstruments& ins,
                     std::uint64_t gen);

/// Run generation `gen` on this rank.
GenerationOutcome run_generation(const GenerationContext& ctx,
                                 std::uint64_t gen);

/// Replica updates, timed as apply; the span's `games` arg is what the
/// change paid in games. `Blocks` is anything with strategy_changed(k, pop,
/// gen) and games_played(): a transport, or ft's worker blocks.
template <class Blocks>
void apply_change(pop::Population& pop, Blocks& blocks, pop::SSetId k,
                  const game::Strategy& s, std::uint64_t gen,
                  const EngineInstruments& ins) {
  PhaseScope phase(ins.apply, obs::phase::kApplyUpdate);
  const std::uint64_t games = blocks.games_played();
  pop.set_strategy(k, s);
  blocks.strategy_changed(k, pop, gen);
  phase.span().set_arg("games", blocks.games_played() - games);
}

/// A generation's adoption stage.
template <class Blocks>
void apply_adoption(pop::Population& pop, Blocks& blocks,
                    const pop::GenerationPlan& plan,
                    const GenerationDecision& d,
                    const EngineInstruments& ins) {
  if (!plan.pc || !d.adopted) return;
  EngineInstruments::inc(ins.adoptions);
  apply_change(pop, blocks, plan.pc->learner, pop.strategy(plan.pc->teacher),
               d.gen, ins);
}

/// The final stage: the Moran replacement, then the mutation.
template <class Blocks>
void apply_final(pop::Population& pop, Blocks& blocks,
                 const pop::GenerationPlan& plan, const GenerationDecision& d,
                 const EngineInstruments& ins) {
  if (plan.moran && d.pick.is_change()) {
    apply_change(pop, blocks, d.pick.dying, pop.strategy(d.pick.reproducer),
                 d.gen, ins);
  }
  if (plan.mutation) {
    EngineInstruments::inc(ins.mutations);
    apply_change(pop, blocks, plan.mutation->target, plan.mutation->strategy,
                 d.gen, ins);
  }
}

}  // namespace egt::core
