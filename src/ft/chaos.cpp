#include "ft/chaos.hpp"

#include <iterator>
#include <optional>
#include <sstream>
#include <vector>

#include "core/engine.hpp"
#include "core/generation.hpp"
#include "ft/protocol.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace egt::ft {
namespace {

using util::pick;
using util::pick_real;

/// Tags chaos may drop or delay: the per-generation data traffic. Control
/// traffic (log replication, election, takeover, eviction, abort, and the
/// recovery RECONFIG round) is excluded — see the header comment.
constexpr int kDataTags[] = {tag::kPlan, tag::kPlanAck, tag::kReqFit,
                             tag::kFit,  tag::kDecide,  tag::kPong,
                             tag::kBlocks};

}  // namespace

ChaosSchedule make_chaos_schedule(std::uint64_t seed) {
  util::Xoshiro256 rng(util::mix64(seed ^ 0xc4a05c4a05ull));
  ChaosSchedule s;
  s.nranks = static_cast<int>(pick(rng, 3, 5));

  s.config.ssets = static_cast<int>(
      pick(rng, static_cast<std::uint64_t>(s.nranks) * 3,
           static_cast<std::uint64_t>(s.nranks) * 3 + 12));
  s.config.memory = 1;
  s.config.generations = pick(rng, 10, 24);
  s.config.pc_rate = pick_real(rng, 0.2, 0.6);
  s.config.mutation_rate = pick_real(rng, 0.05, 0.3);
  s.config.seed = util::mix64(seed + 1);

  std::ostringstream sum;
  sum << "seed " << seed << ": ranks=" << s.nranks
      << " ssets=" << s.config.ssets << " gens=" << s.config.generations;

  // Kills: up to nranks-2 distinct ranks (>= 2 survivors), rank 0 included
  // in the draw. Half the multi-kill schedules land on one generation —
  // the same-boundary cascade is the hardest failover case.
  const auto max_kills = static_cast<std::uint64_t>(
      s.nranks - 2 < 2 ? s.nranks - 2 : 2);
  const std::uint64_t nkills =
      pick(rng, 0, 3) == 0 ? 0 : pick(rng, 1, max_kills);
  std::vector<int> ranks;
  for (int r = 0; r < s.nranks; ++r) ranks.push_back(r);
  for (std::uint64_t i = 0; i < nkills; ++i) {
    const auto j = pick(rng, i, static_cast<std::uint64_t>(s.nranks) - 1);
    std::swap(ranks[i], ranks[j]);
  }
  const bool same_gen = nkills > 1 && pick(rng, 0, 1) == 0;
  const std::uint64_t gen0 = pick(rng, 0, s.config.generations - 1);
  for (std::uint64_t i = 0; i < nkills; ++i) {
    const std::uint64_t gen =
        same_gen ? gen0 : pick(rng, 0, s.config.generations - 1);
    s.options.plan.kill(ranks[i], gen);
    sum << " kill=" << ranks[i] << "@g" << gen;
  }
  // One log replica more than the worst-case master-kill cascade: the
  // decision log must survive every schedule, so an abort is a soak bug.
  s.options.standby_replicas = static_cast<int>(nkills) + 1;

  // These draws once chose block checkpoints, some torn; the ft engine
  // writes none. They stay so every seed keeps its kills, drops and delays.
  if (pick(rng, 0, 1) == 0) {
    const std::uint64_t every = pick(rng, 3, 6);
    if (pick(rng, 0, 1) == 0) {
      (void)pick(rng, 0, static_cast<std::uint64_t>(s.nranks) - 1);
      (void)pick(rng, 1, s.config.generations / every);
    }
  }

  // Drops and delays on data tags.
  const std::uint64_t ndrops = pick(rng, 0, 2);
  for (std::uint64_t i = 0; i < ndrops; ++i) {
    MessageFault rule;
    rule.source = static_cast<int>(
        pick(rng, 0, static_cast<std::uint64_t>(s.nranks) - 1));
    rule.tag = kDataTags[pick(rng, 0, std::size(kDataTags) - 1)];
    rule.skip = pick(rng, 0, 5);
    rule.count = 1;
    s.options.plan.drop(rule);
    sum << " drop=src" << rule.source << "/tag" << std::hex << rule.tag
        << std::dec << "+skip" << rule.skip;
  }
  if (pick(rng, 0, 1) == 0) {
    MessageFault rule;
    rule.tag = kDataTags[pick(rng, 0, std::size(kDataTags) - 1)];
    rule.skip = pick(rng, 0, 5);
    rule.count = pick(rng, 1, 3);
    rule.delay_ms = pick(rng, 3, 20);
    s.options.plan.delay(rule);
    sum << " delay=tag" << std::hex << rule.tag << std::dec << "x"
        << rule.count << "/" << rule.delay_ms << "ms";
  }

  // The fitness mode, drawn last so the faults above do not depend on it.
  // Recovery recomputes every block from the strategy table and the
  // SSets' last-change generations, so the oracle holds in every mode.
  // The frozen schedules play mixed strategies under noise, so their
  // samples depend on the generation each pair was last played in:
  // SampledFrozen at memory one, and Analytic at memory two, whose pairs
  // have no closed form and fall through to frozen sampling.
  const std::uint64_t mode = pick(rng, 0, 2);
  if (mode == 0) {
    s.config.fitness_mode = core::FitnessMode::Sampled;
  } else {
    s.config.fitness_mode = mode == 1 ? core::FitnessMode::SampledFrozen
                                      : core::FitnessMode::Analytic;
    s.config.memory = mode == 1 ? 1 : 2;
    s.config.space = pop::StrategySpace::Mixed;
    s.config.game.noise = 0.02;
  }
  constexpr const char* kModeNames[] = {"sampled", "frozen", "analytic"};
  sum << " fitness=" << kModeNames[mode] << " m" << s.config.memory;

  // Soak timeouts: small enough that a master kill costs well under a
  // second, generous enough that a loaded CI machine does not evict a
  // healthy rank (a false positive only waives the counter check, but a
  // soak should exercise real recovery, not timeout noise).
  s.options.detect_timeout_ms = 150.0;
  s.options.ping_timeout_ms = 60.0;
  s.options.max_pings = 2;
  s.options.master_silence_ms = 350.0;
  s.options.election_window_ms = 80.0;

  s.summary = sum.str();
  return s;
}

ChaosOutcome run_chaos_schedule(std::uint64_t seed) {
  const ChaosSchedule s = make_chaos_schedule(seed);

  obs::MetricsRegistry reg;
  core::Engine serial(s.config, &reg);
  serial.run_all();
  const pop::Population& ref = serial.population();
  const obs::MetricsSnapshot ref_metrics = reg.snapshot();

  ChaosOutcome out;
  std::optional<FtResult> ft;
  try {
    ft.emplace(run_parallel_ft(s.config, s.nranks, s.options));
  } catch (const std::exception& e) {
    out.detail = s.summary + " | ft run threw: " + e.what();
    return out;
  }
  out.ranks_lost = ft->ranks_lost;
  out.failovers = ft->failovers;

  std::ostringstream why;
  if (ft->generations != s.config.generations) {
    why << " generations=" << ft->generations << " want "
        << s.config.generations << ";";
  }
  if (ft->population.table_hash() != ref.table_hash()) {
    why << " strategy table diverged;";
  }
  for (pop::SSetId i = 0; i < ref.size(); ++i) {
    if (ft->population.fitness(i) != ref.fitness(i)) {
      why << " fitness diverged at sset " << i << ";";
      break;
    }
  }
  // Counters are only comparable when nothing beyond the planned kills was
  // declared dead: a drop-induced false-positive eviction keeps the
  // trajectory exact but over-counts recovery work.
  const auto planned = static_cast<int>(s.options.plan.kills().size());
  const core::EngineCounters got = core::counters_from(ft->metrics);
  const core::EngineCounters want = core::counters_from(ref_metrics);
  if (ft->ranks_lost == planned && got != want) {
    why << " engine counters " << core::to_string(got) << " want "
        << core::to_string(want) << ";";
  }

  out.ok = why.str().empty();
  out.detail = out.ok ? s.summary : s.summary + " |" + why.str();
  return out;
}

}  // namespace egt::ft
