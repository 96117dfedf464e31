#include "core/generation.hpp"

#include "core/fitness.hpp"

namespace egt::core {

EngineCounters counters_from(const obs::MetricsSnapshot& s) {
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

EngineCounters counters_add(const EngineCounters& a, const EngineCounters& b) {
  return EngineCounters{a.generations + b.generations,
                        a.pc_events + b.pc_events,
                        a.adoptions + b.adoptions,
                        a.moran_events + b.moran_events,
                        a.mutations + b.mutations,
                        a.pairs_evaluated + b.pairs_evaluated,
                        a.games_played + b.games_played};
}

std::string to_string(const EngineCounters& c) {
  return "generations=" + std::to_string(c.generations) +
         " pc_events=" + std::to_string(c.pc_events) +
         " adoptions=" + std::to_string(c.adoptions) +
         " moran_events=" + std::to_string(c.moran_events) +
         " mutations=" + std::to_string(c.mutations) +
         " pairs_evaluated=" + std::to_string(c.pairs_evaluated) +
         " games_played=" + std::to_string(c.games_played);
}

EngineInstruments::EngineInstruments(obs::MetricsRegistry* reg, bool events) {
  if (reg == nullptr) return;
  game_play = &reg->histogram(obs::phase::kGamePlay);
  plan = &reg->histogram(obs::phase::kPlanBcast);
  fitness_return = &reg->histogram(obs::phase::kFitnessReturn);
  decision = &reg->histogram(obs::phase::kDecisionBcast);
  apply = &reg->histogram(obs::phase::kApplyUpdate);
  pairs = &reg->counter("engine.pairs_evaluated");
  games = &reg->counter("engine.games_played");
  if (events) count_events(*reg);
}

void EngineInstruments::count_events(obs::MetricsRegistry& reg) {
  generations = &reg.counter("engine.generations");
  pc_events = &reg.counter("engine.pc_events");
  adoptions = &reg.counter("engine.adoptions");
  moran_events = &reg.counter("engine.moran_events");
  mutations = &reg.counter("engine.mutations");
}

void EngineInstruments::account(BlockFitness& fit) const {
  const BlockFitness::Work w = fit.take_work();
  inc(pairs, w.pairs);
  inc(games, w.games);
}

void EngineInstruments::initialize(BlockFitness& fit,
                                   const pop::Population& pop) const {
  // Sampled blocks re-play every pair at each generation, 0's included.
  if (!fit.cached()) return;
  {
    PhaseScope phase(game_play, obs::phase::kGamePlay);
    fit.initialize(pop);
    phase.span().set_arg("games", fit.games_played());
  }
  account(fit);
}

// -- generation-plan wire format ---------------------------------------------
//
//   u8 has_pc [u32 teacher, u32 learner]  u8 moran
//   u8 has_mutation [u32 target, u32 len, len bytes of Strategy::serialize]

std::vector<std::byte> encode_generation_plan(const pop::GenerationPlan& plan) {
  wire::Writer w;
  w.u8(plan.pc ? 1 : 0);
  if (plan.pc) {
    w.u32(plan.pc->teacher);
    w.u32(plan.pc->learner);
  }
  w.u8(plan.moran ? 1 : 0);
  w.u8(plan.mutation ? 1 : 0);
  if (plan.mutation) {
    w.u32(plan.mutation->target);
    w.bytes(plan.mutation->strategy.serialize());
  }
  return w.take();
}

pop::GenerationPlan decode_generation_plan(const std::vector<std::byte>& in) {
  wire::Reader r(in, "generation plan");
  pop::GenerationPlan plan;
  if (r.u8("pc flag") != 0) {
    pop::GenerationPlan::Pc pc;
    pc.teacher = r.u32("pc teacher");
    pc.learner = r.u32("pc learner");
    plan.pc = pc;
  }
  plan.moran = r.u8("moran flag") != 0;
  if (plan.pc && plan.moran) r.fail("plan carries both a PC and a Moran event");
  if (r.u8("mutation flag") != 0) {
    pop::GenerationPlan::Mutation mut;
    mut.target = r.u32("mutation target");
    mut.strategy = game::Strategy::deserialize(r.bytes("mutation strategy"));
    plan.mutation = std::move(mut);
  }
  r.expect_exhausted();
  return plan;
}

void wire::put_nature(Writer& w, const pop::NatureAgent::State& s) {
  for (const auto word : s.rng) w.u64(word);
  w.u64(s.planned);
}

pop::NatureAgent::State wire::get_nature(Reader& r) {
  pop::NatureAgent::State s;
  for (auto& word : s.rng) word = r.u64("nature rng state");
  s.planned = r.u64("nature planned count");
  return s;
}

void wire::put_decision(Writer& w, const GenerationDecision& d) {
  w.u8(d.adopted ? 1 : 0);
  w.u32(d.pick.reproducer);
  w.u32(d.pick.dying);
}

GenerationDecision wire::get_decision(Reader& r, std::uint64_t gen) {
  GenerationDecision d;
  d.gen = gen;
  d.adopted = r.u8("adopted flag") != 0;
  d.pick.reproducer = r.u32("moran reproducer");
  d.pick.dying = r.u32("moran dying");
  return d;
}

// -- the generation step ------------------------------------------------------

void play_generation(GenerationTransport& t, const EngineInstruments& ins,
                     std::uint64_t gen) {
  PhaseScope phase(ins.game_play, obs::phase::kGamePlay);
  const std::uint64_t games_before = t.games_played();
  t.play(gen);
  phase.span().set_arg("games", t.games_played() - games_before);
}

GenerationOutcome run_generation(const GenerationContext& ctx,
                                 std::uint64_t gen) {
  GenerationTransport& t = ctx.transport;
  const EngineInstruments& ins = ctx.ins;
  pop::NatureAgent* nature = ctx.nature;
  obs::TraceSpan gen_span(obs::kGenerationSpan, obs::kCatEngine, "gen", gen);
  // 1. Game dynamics: this generation's fitness.
  play_generation(t, ins, gen);

  // 2. Population dynamics.
  GenerationOutcome out;
  pop::GenerationPlan& plan = out.plan;
  GenerationDecision& d = out.decision;
  d.gen = gen;
  {
    PhaseScope phase(ins.plan, obs::phase::kPlanBcast);
    if (nature != nullptr) plan = nature->plan_generation(&ctx.pop);
    t.share_plan(gen, plan);
  }

  if (plan.pc) {
    EngineInstruments::inc(ins.pc_events);
    std::array<double, 2> pair{};
    {
      PhaseScope phase(ins.fitness_return, obs::phase::kFitnessReturn);
      pair = t.pc_fitness(*plan.pc);
    }
    {
      PhaseScope phase(ins.decision, obs::phase::kDecisionBcast);
      if (nature != nullptr) {
        d.adopted = nature->decide_adoption(pair[0], pair[1]);
      }
      t.share_adoption(d.adopted);
    }
  }

  if (plan.moran) {
    EngineInstruments::inc(ins.moran_events);
    // The Moran rule needs the whole fitness vector at the selector — the
    // communication pattern the paper's pairwise rule avoids.
    std::span<const double> full;
    {
      PhaseScope phase(ins.fitness_return, obs::phase::kFitnessReturn);
      full = t.gather_fitness();
    }
    {
      PhaseScope phase(ins.decision, obs::phase::kDecisionBcast);
      if (nature != nullptr) d.pick = nature->select_moran(full);
      t.share_pick(d.pick);
    }
  }
  apply_decision(ctx.pop, t, plan, d, ins);

  t.finish(out);
  EngineInstruments::inc(ins.generations);

  if (ctx.trace != nullptr) {
    // After this generation's events applied, before the next one plans;
    // Nature's state is the post-decision one the ft log replicates.
    ctx.trace->on_point(TracePoint{
        .generation = gen,
        .nature = nature->save_state(),
        .pc = plan.pc.has_value(),
        .teacher = plan.pc ? plan.pc->teacher : 0,
        .learner = plan.pc ? plan.pc->learner : 0,
        .adopted = plan.moran ? d.pick.is_change() : d.adopted,
        .moran = plan.moran,
        .reproducer = d.pick.reproducer,
        .dying = d.pick.dying,
        .mutated = plan.mutation.has_value(),
        .mutation_target = plan.mutation ? plan.mutation->target : 0,
        .table_hash = ctx.pop.table_hash(),
        .fitness_hash = ctx.hash_fitness ? hash_fitness(ctx.pop.fitness()) : 0,
    });
  }
  return out;
}

}  // namespace egt::core
