#include "core/fitness.hpp"

#include <algorithm>
#include <string>

#include "util/check.hpp"

namespace egt::core {

namespace {

/// Dense per-ClassId scratch for one dedup call: slot[c] is meaningful
/// only while stamp[c] == epoch, so starting a call is O(1) instead of a
/// clear over the whole class table.
struct ClassSlots {
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint32_t> slot;
  std::uint32_t epoch = 0;

  void begin(std::size_t classes) {
    if (++epoch == 0) {  // wrapped: forget every stale stamp
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
    if (stamp.size() < classes) {
      stamp.resize(classes, 0);
      slot.resize(classes);
    }
  }
};

std::string rows_text(pop::SSetId b, pop::SSetId e) {
  return "[" + std::to_string(b) + ", " + std::to_string(e) + ")";
}

std::string shape_text(pop::SSetId b, pop::SSetId e, FitnessMode mode,
                       std::uint32_t cols) {
  return rows_text(b, e) + " x " + std::to_string(cols) + " cols, mode " +
         std::to_string(static_cast<int>(mode));
}

}  // namespace

PairEvaluator::PairEvaluator(const SimConfig& config)
    : config_(config),
      engine_(config.memory, config.game.ipd_params(), config.lookup) {}

PairEvaluator::Route PairEvaluator::route(
    const game::Strategy& si, const game::Strategy& sj) const noexcept {
  if (config_.fitness_mode != FitnessMode::Analytic) {
    return Route::SampledStream;
  }
  // N-way matrix games: the memory-0 outcome chain is always exact, and
  // must never flow into a kernel that assumes binary moves.
  if (game::spec::requires_spec_chain(config_.game)) return Route::NWaySpec;
  if (si.is_pure() && sj.is_pure() && config_.game.noise == 0.0) {
    return Route::PureExact;
  }
  if (config_.memory == 1) return Route::Mem1Markov;
  return Route::SampledStream;  // stochastic memory >= 2: stream play
}

bool PairEvaluator::strategy_pure(const game::Strategy& si,
                                  const game::Strategy& sj) const noexcept {
  return route(si, sj) != Route::SampledStream;
}

void PairEvaluator::mem1_batch_payoffs(const game::batch::Mem1Batch& batch,
                                       std::span<double> out) const {
  game::batch::expected_payoff_mem1(batch, config_.game.payoff,
                                    config_.game.rounds, out);
}

double PairEvaluator::pair_payoff(const game::Strategy& si,
                                  const game::Strategy& sj) const {
  switch (route(si, sj)) {
    case Route::NWaySpec:
      return game::spec::expected_game(
                 config_.game,
                 game::spec::Behavioral::from_strategy(config_.game, si),
                 game::spec::Behavioral::from_strategy(config_.game, sj))
          .payoff_a;
    case Route::PureExact:
      return game::batch::exact_pure_game_fast(si.as_pure(), sj.as_pure(),
                                               config_.game.payoff,
                                               config_.game.rounds)
          .payoff_a;
    case Route::Mem1Markov: {
      // Batch of one through the same kernel every batched evaluation
      // uses (one kernel per process; lane arithmetic is batch-size
      // independent, so this equals any batched evaluation bitwise).
      thread_local game::batch::Mem1Batch batch;
      batch.clear();
      batch.push_pair(si, sj, config_.game.noise);
      double out = 0.0;
      mem1_batch_payoffs(batch, {&out, 1});
      return out;
    }
    case Route::SampledStream:
      break;
  }
  EGT_REQUIRE_MSG(false, "pair_payoff requires a strategy-pure pair");
  return 0.0;
}

double PairEvaluator::payoff(const pop::Population& pop, pop::SSetId i,
                             pop::SSetId j, std::uint64_t gen_key) const {
  EGT_REQUIRE_MSG(config_.game.kind != game::GameKind::PublicGoods,
                  "public goods fitness is group-pooled, not pairwise");
  const game::Strategy& si = pop.strategy(i);
  const game::Strategy& sj = pop.strategy(j);
  if (strategy_pure(si, sj)) {
    // Exact methods: the value is a pure function of the strategy pair
    // (the dedup-eligibility rule) and gen_key is ignored.
    return pair_payoff(si, sj);
  }
  // No closed form: play a game on the (gen_key, i, j)-keyed stream.
  util::StreamRng rng(config_.seed, util::stream_key(gen_key, i, j));
  if (config_.game.uses_nway()) {
    // Sampled n-way play: spec.rounds independent one-shot stage games.
    return game::spec::play_oneshot(config_.game, si, sj, rng).payoff_a;
  }
  // Sampled streams, or stochastic memory>=2 under Analytic.
  return engine_.play(si, sj, rng).payoff_a;
}

void PairEvaluator::payoffs(const pop::Population& pop,
                            std::span<const Pair> pairs,
                            std::uint64_t gen_key,
                            std::span<double> out) const {
  EGT_REQUIRE(out.size() >= pairs.size());
  EGT_REQUIRE_MSG(config_.game.kind != game::GameKind::PublicGoods,
                  "public goods fitness is group-pooled, not pairwise");
  // Mem1Markov pairs gather into one SoA batch fed from the population's
  // class table, binary stream pairs into one lane-kernel batch; the
  // *_slot vectors map each batch entry back to its position in `pairs`.
  thread_local game::batch::Mem1Batch mem1;
  thread_local std::vector<std::size_t> mem1_slot;
  thread_local std::vector<double> mem1_out;
  thread_local std::vector<game::batch::StreamGame> games;
  thread_local std::vector<std::size_t> game_slot;
  thread_local std::vector<game::GameResult> game_out;
  mem1.clear();
  mem1_slot.clear();
  games.clear();
  game_slot.clear();
  // The LinearSearch ablation keeps the paper's round loop per pair.
  const bool lanes = engine_.lookup_mode() == game::LookupMode::Indexed &&
                     !config_.game.uses_nway();
  for (std::size_t t = 0; t < pairs.size(); ++t) {
    const auto [i, j] = pairs[t];
    const game::Strategy& si = pop.strategy(i);
    const game::Strategy& sj = pop.strategy(j);
    const Route r = route(si, sj);
    if (r == Route::Mem1Markov &&
        pop.mem1_batchable(pop.strategy_class(i)) &&
        pop.mem1_batchable(pop.strategy_class(j))) {
      mem1.push_probs(pop.mem1_probs(pop.strategy_class(i)),
                      pop.mem1_probs(pop.strategy_class(j)),
                      config_.game.noise);
      mem1_slot.push_back(t);
    } else if (r == Route::SampledStream && lanes && si.is_pure() &&
               sj.is_pure() && config_.game.noise == 0.0) {
      // Deterministic game: nothing to draw, so no stream to key.
      out[t] = game::batch::run_pure_game(si.as_pure(), sj.as_pure(),
                                          config_.game.payoff,
                                          config_.game.rounds)
                   .payoff_a;
    } else if (r == Route::SampledStream && lanes) {
      games.push_back({game::batch::Player::of(si),
                       game::batch::Player::of(sj),
                       util::StreamRng(config_.seed,
                                       util::stream_key(gen_key, i, j))});
      game_slot.push_back(t);
    } else {
      out[t] = payoff(pop, i, j, gen_key);
    }
  }
  if (!mem1.empty()) {
    if (mem1_out.size() < mem1.size()) mem1_out.resize(mem1.size());
    mem1_batch_payoffs(mem1, {mem1_out.data(), mem1.size()});
    for (std::size_t k = 0; k < mem1_slot.size(); ++k) {
      out[mem1_slot[k]] = mem1_out[k];
    }
  }
  if (!games.empty()) {
    if (game_out.size() < games.size()) game_out.resize(games.size());
    game::batch::play_stream_games(games, config_.memory, engine_.params(),
                                   game_out);
    for (std::size_t k = 0; k < game_slot.size(); ++k) {
      out[game_slot[k]] = game_out[k].payoff_a;
    }
  }
}

BlockFitness::BlockFitness(const SimConfig& config, pop::SSetId row_begin,
                           pop::SSetId row_end,
                           std::shared_ptr<const pop::InteractionGraph> graph,
                           obs::MetricsRegistry* metrics)
    : config_(config),
      eval_(config),
      graph_(std::move(graph)),
      begin_(row_begin),
      end_(row_end),
      dedup_(config.dedup && config.fitness_mode == FitnessMode::Analytic &&
             config.game.kind != game::GameKind::PublicGoods),
      pgg_(config.game.kind == game::GameKind::PublicGoods) {
  EGT_REQUIRE(row_begin <= row_end && row_end <= config.ssets);
  if (metrics != nullptr) {
    ct_restores_ = &metrics->counter("fitness.state_restores");
  }
  fitness_.assign(end_ - begin_, 0.0);
  matrix_.assign(static_cast<std::size_t>(end_ - begin_) * matrix_cols(), 0.0);
  if (pairwise_cached()) sums_.assign(end_ - begin_, ExactSum{});
  if (config.threads > 0) {
    pool_ = std::make_unique<par::ThreadPool>(config.threads);
  }
}

double BlockFitness::row_scale(pop::SSetId i) const noexcept {
  if (config_.fitness_scale == FitnessScale::Total) return 1.0;
  if (pgg_) {
    // Mean per-round, per-group payoff.
    return 1.0 /
           (static_cast<double>(pgg_group_count(i)) * config_.game.rounds);
  }
  const double opponents =
      structured() ? graph_->degree(i)
                   : static_cast<double>(config_.ssets - 1);
  return 1.0 / (opponents * config_.game.rounds);
}

std::uint32_t BlockFitness::pgg_group_count(pop::SSetId i) const noexcept {
  if (structured()) return 1 + static_cast<std::uint32_t>(graph_->degree(i));
  return config_.game.pgg_k == 0 ? 1 : config_.game.pgg_k;
}

double BlockFitness::pgg_contrib(const pop::Population& pop, pop::SSetId j,
                                 std::uint64_t gen_key) const {
  const double p = pop.strategy(j).coop_prob(0);
  const double eps = config_.game.noise;
  const double pe = (1.0 - eps) * p + eps * (1.0 - p);
  if (config_.fitness_mode == FitnessMode::Analytic) {
    return pe * config_.game.rounds;
  }
  util::StreamRng rng(config_.seed, util::stream_key(gen_key, j, j));
  double c = 0.0;
  for (std::uint32_t t = 0; t < config_.game.rounds; ++t) {
    if (util::bernoulli(rng, pe)) c += 1.0;
  }
  return c;
}

void BlockFitness::recompute_row_pgg(pop::SSetId i, const pop::Population& pop,
                                     std::uint64_t gen_key, Counts& counts) {
  const double r = config_.game.pgg_r;
  const double cost = config_.game.pgg_cost;
  const double own = pgg_contrib(pop, i, gen_key);
  double sum = 0.0;
  if (structured()) {
    // One group per SSet t, {t} ∪ N(t): i plays in its own group and in
    // every neighbour's.
    const auto group_share = [&](pop::SSetId t) {
      const auto nbrs = graph_->neighbors(t);
      double pool = pgg_contrib(pop, t, gen_key);
      for (pop::SSetId j : nbrs) pool += pgg_contrib(pop, j, gen_key);
      counts.pairs += 1 + nbrs.size();
      ++counts.games;
      return r * cost * pool / static_cast<double>(1 + nbrs.size());
    };
    sum += group_share(i) - own * cost;
    for (pop::SSetId t : graph_->neighbors(i)) {
      sum += group_share(t) - own * cost;
    }
  } else if (config_.game.pgg_k == 0) {
    // Well-mixed auto group: everyone shares one pool.
    double pool = 0.0;
    for (pop::SSetId j = 0; j < config_.ssets; ++j) {
      pool += pgg_contrib(pop, j, gen_key);
    }
    counts.pairs += config_.ssets;
    ++counts.games;
    sum = r * cost * pool / config_.ssets - own * cost;
  } else {
    // Well-mixed k-windows: i is a member of the k ring windows starting
    // at i-k+1 .. i (mod n). d(payoff_i)/d(own) = cost * (r - k): free
    // riding dominates for r < k, contribution for r > k.
    const std::uint32_t k = config_.game.pgg_k;
    const std::uint32_t n = config_.ssets;
    for (std::uint32_t o = 0; o < k; ++o) {
      const std::uint32_t t = (i + n - o) % n;
      double pool = 0.0;
      for (std::uint32_t d = 0; d < k; ++d) {
        pool += pgg_contrib(pop, (t + d) % n, gen_key);
      }
      counts.pairs += k;
      ++counts.games;
      sum += r * cost * pool / k - own * cost;
    }
  }
  fitness_[i - begin_] = sum * row_scale(i);
}

void BlockFitness::pair_values(const pop::Population& pop,
                               std::span<const PairEvaluator::Pair> pairs,
                               bool vary_row, std::uint64_t gen_key,
                               std::span<double> out, std::uint64_t& games,
                               par::ThreadPool* pool) const {
  // `todo` holds the distinct evaluations; pick[t] names the one that
  // answers pairs[t]. Pool workers see their own thread_locals, so they
  // get these buffers as spans.
  constexpr std::uint32_t kEachPair = ~std::uint32_t{0};
  thread_local ClassSlots seen;
  thread_local std::vector<PairEvaluator::Pair> todo;
  thread_local std::vector<std::uint32_t> pick;
  thread_local std::vector<double> vals;
  std::span<const PairEvaluator::Pair> work = pairs;
  std::span<double> dst = out.first(pairs.size());
  if (dedup_) {
    seen.begin(pop.classes().size());
    todo.clear();
    pick.resize(pairs.size());
    for (std::size_t t = 0; t < pairs.size(); ++t) {
      const auto [i, j] = pairs[t];
      const pop::ClassId c = pop.strategy_class(vary_row ? i : j);
      std::uint32_t& slot = seen.slot[c];
      if (seen.stamp[c] != seen.epoch) {
        seen.stamp[c] = seen.epoch;
        slot = eval_.strategy_pure(pop.strategy(i), pop.strategy(j))
                   ? static_cast<std::uint32_t>(todo.size())
                   : kEachPair;
      } else if (slot != kEachPair) {
        pick[t] = slot;
        continue;
      }
      pick[t] = static_cast<std::uint32_t>(todo.size());
      todo.push_back(pairs[t]);
    }
    vals.resize(todo.size());
    work = todo;
    dst = vals;
  }
  if (pool == nullptr) {
    eval_.payoffs(pop, work, gen_key, dst);
  } else {
    pool->parallel_for(work.size(), [&](std::uint64_t b, std::uint64_t e) {
      eval_.payoffs(pop, work.subspan(b, e - b), gen_key,
                    dst.subspan(b, e - b));
    });
  }
  games += work.size();
  if (dedup_) {
    for (std::size_t t = 0; t < pairs.size(); ++t) out[t] = vals[pick[t]];
  }
}

void BlockFitness::recompute_row(pop::SSetId i, const pop::Population& pop,
                                 std::uint64_t gen_key, Counts& counts,
                                 par::ThreadPool* pool, const SourceRow* copy,
                                 pop::SSetId mirror) {
  if (pgg_) {
    recompute_row_pgg(i, pop, gen_key, counts);
    return;
  }
  // The row's pairs: neighbours (structured), or every j != i.
  thread_local std::vector<PairEvaluator::Pair> pairs;
  thread_local std::vector<double> vals;
  thread_local std::vector<PairEvaluator::Pair> rest;
  thread_local std::vector<std::size_t> slot;
  thread_local std::vector<double> rest_vals;
  pairs.clear();
  if (structured()) {
    for (pop::SSetId j : graph_->neighbors(i)) pairs.emplace_back(i, j);
  } else {
    for (pop::SSetId j = 0; j < config_.ssets; ++j) {
      if (j != i) pairs.emplace_back(i, j);
    }
  }
  vals.resize(pairs.size());
  if (copy == nullptr) {
    pair_values(pop, pairs, /*vary_row=*/false, gen_key, vals, counts.games,
                pool);
  } else {
    // Same class as the copy's SSet, so every strategy-pure value is
    // already in its row; only the (gen_key, i, j)-keyed pairs, and
    // (i, sset) when no entry mirrors it, are evaluated.
    const game::Strategy& si = pop.strategy(i);
    rest.clear();
    slot.clear();
    for (std::size_t t = 0; t < pairs.size(); ++t) {
      const pop::SSetId j = pairs[t].second;
      const pop::SSetId col = j == copy->sset ? mirror : j;
      if (col != kNoSSet && eval_.strategy_pure(si, pop.strategy(j))) {
        vals[t] = copy->values[col];
      } else {
        rest.push_back(pairs[t]);
        slot.push_back(t);
      }
    }
    rest_vals.resize(rest.size());
    pair_values(pop, rest, /*vary_row=*/false, gen_key, rest_vals,
                counts.games, pool);
    for (std::size_t k = 0; k < slot.size(); ++k) vals[slot[k]] = rest_vals[k];
  }
  counts.pairs += pairs.size();
  ExactSum sum;
  for (std::size_t t = 0; t < pairs.size(); ++t) {
    if (cached()) cell(i, pairs[t].second) = vals[t];
    sum.add(vals[t]);
  }
  if (pairwise_cached()) sums_[i - begin_] = sum;
  fitness_[i - begin_] = sum.value() * row_scale(i);
}

void BlockFitness::evaluate_rows(const pop::Population& pop,
                                 std::uint64_t gen_key) {
  const std::uint64_t rows = end_ - begin_;
  // Well-mixed dedup: the first owned row of each class is evaluated and
  // every later row of that class copies it. Sources run in phase one and
  // copies in phase two, so pool workers never read a row another worker
  // is writing and the counters are thread-count-invariant.
  std::vector<pop::SSetId> source(rows, kNoSSet);
  if (reuse_matrix()) {
    std::vector<pop::SSetId> first(pop.classes().size(), kNoSSet);
    for (pop::SSetId i = begin_; i < end_; ++i) {
      pop::SSetId& f = first[pop.strategy_class(i)];
      if (f == kNoSSet) {
        f = i;
      } else {
        source[i - begin_] = f;
      }
    }
  }
  std::vector<Counts> per_row(rows);
  for (const bool copies : {false, true}) {
    if (copies && !reuse_matrix()) break;
    const auto phase = [&](std::uint64_t b, std::uint64_t e) {
      for (std::uint64_t r = b; r < e; ++r) {
        if ((source[r] != kNoSSet) != copies) continue;
        const pop::SSetId i = begin_ + static_cast<pop::SSetId>(r);
        if (copies) {
          const SourceRow own{source[r], source_row(source[r])};
          recompute_row(i, pop, gen_key, per_row[r], nullptr, &own, i);
        } else {
          recompute_row(i, pop, gen_key, per_row[r], nullptr);
        }
      }
    };
    if (pool_ != nullptr) {
      pool_->parallel_for(rows, phase);
    } else {
      phase(0, rows);
    }
  }
  for (const Counts& c : per_row) {
    pairs_ += c.pairs;
    games_ += c.games;
  }
}

void BlockFitness::initialize(const pop::Population& pop) {
  evaluate_rows(pop, 0);
}

void BlockFitness::begin_generation(const pop::Population& pop,
                                    std::uint64_t generation) {
  if (cached()) return;  // values only move when a strategy changes
  evaluate_rows(pop, generation);
}

bool BlockFitness::strategy_changed(pop::SSetId k, const pop::Population& pop,
                                    std::uint64_t generation,
                                    const SourceRow* source) {
  if (!cached()) return false;  // next begin_generation re-plays everything
  if (pgg_) {
    // A single strategy change moves every group pool the SSet touches
    // (and, well-mixed, every row): recompute all owned rows. Row-local
    // and deterministic, so serial and parallel partitions agree on both
    // values and counters.
    evaluate_rows(pop, generation);
    return false;
  }
  Counts counts;
  // Up to two other members s1 < s2 of k's new class. Column s1 already
  // holds every fresh strategy-pure (i, k) but (s1, k), which column s2
  // holds.
  const pop::ClassId ck = pop.strategy_class(k);
  pop::SSetId s1 = kNoSSet, s2 = kNoSSet;
  if (reuse_matrix()) {
    for (pop::SSetId j = 0; j < config_.ssets && s2 == kNoSSet; ++j) {
      if (j == k || pop.strategy_class(j) != ck) continue;
      (s1 == kNoSSet ? s1 : s2) = j;
    }
  }
  // Column refresh: matrix_ still holds the pre-change (i, k), which the
  // row's exact sum swaps for the new value. The pairs no column answers
  // share one call.
  thread_local std::vector<PairEvaluator::Pair> pairs;
  thread_local std::vector<double> fresh;
  pairs.clear();
  const auto refresh = [&](pop::SSetId i, double value) {
    double& m = cell(i, k);
    ExactSum& sum = sums_[i - begin_];
    sum.add(value);
    sum.add(-m);
    m = value;
    fitness_[i - begin_] = sum.value() * row_scale(i);
  };
  const game::Strategy& sk = pop.strategy(k);
  for (pop::SSetId i = begin_; i < end_; ++i) {
    if (i == k) continue;
    if (structured() && !graph_->are_neighbors(i, k)) continue;
    ++counts.pairs;
    const pop::SSetId src = i != s1 ? s1 : s2;
    if (src != kNoSSet && eval_.strategy_pure(pop.strategy(i), sk)) {
      refresh(i, cell(i, src));
    } else {
      pairs.emplace_back(i, k);
    }
  }
  fresh.resize(pairs.size());
  pair_values(pop, pairs, /*vary_row=*/true, generation, fresh, counts.games,
              nullptr);
  for (std::size_t t = 0; t < pairs.size(); ++t) {
    refresh(pairs[t].first, fresh[t]);
  }
  // Row k last, so a copy from an owned row of its class reads a current
  // (owned, k). A shipped row's (sset, k) predates the change, so
  // (k, sset) mirrors another member of the class: s1 or s2, whichever is
  // not the shipped row's SSet.
  const bool shipped = k >= begin_ && k < end_ && reuse_matrix() &&
                       source != nullptr && source->sset != k &&
                       pop.strategy_class(source->sset) == ck;
  if (shipped) {
    EGT_REQUIRE(source->values.size() == config_.ssets);
    recompute_row(k, pop, generation, counts, pool_.get(), source,
                  source->sset != s1 ? s1 : s2);
  } else if (k >= begin_ && k < end_) {
    SourceRow own{kNoSSet, {}};
    for (pop::SSetId r = begin_; r < end_ && reuse_matrix(); ++r) {
      if (r != k && pop.strategy_class(r) == ck) {
        own = {r, source_row(r)};
        break;
      }
    }
    recompute_row(k, pop, generation, counts, pool_.get(),
                  own.sset != kNoSSet ? &own : nullptr, k);
  }
  pairs_ += counts.pairs;
  games_ += counts.games;
  return shipped;
}

std::span<const double> BlockFitness::source_row(pop::SSetId i) const {
  EGT_REQUIRE_MSG(i >= begin_ && i < end_, "row query outside block");
  if (!reuse_matrix()) return {};
  return {matrix_.data() + static_cast<std::size_t>(i - begin_) * config_.ssets,
          config_.ssets};
}

void BlockFitness::State::encode(wire::Writer& w) const {
  EGT_REQUIRE(begin <= end);
  EGT_REQUIRE(values.size() == (end - begin) * width());
  w.u32(begin);
  w.u32(end);
  w.u8(static_cast<std::uint8_t>(mode));
  w.u32(cols);
  w.doubles(values.data(), values.size());
}

BlockFitness::State BlockFitness::State::decode(wire::Reader& r,
                                                bool with_fitness) {
  State s;
  s.begin = r.u32("row begin");
  s.end = r.u32("row end");
  const std::uint8_t mode = r.u8("fitness mode");
  if (mode > static_cast<std::uint8_t>(FitnessMode::Analytic)) {
    r.fail("unknown fitness mode " + std::to_string(mode));
  }
  s.mode = static_cast<FitnessMode>(mode);
  s.cols = r.u32("matrix cols");
  if (s.end < s.begin) r.fail("row range is inverted");
  const std::size_t rows = s.end - s.begin;
  if (with_fitness && s.cols > 0) (void)r.doubles(rows, "fitness vector");
  s.values = r.doubles(rows * s.width(), "block values");
  return s;
}

BlockFitness::State BlockFitness::State::slice(pop::SSetId b,
                                               pop::SSetId e) const {
  if (b > e || b < begin || e > end) {
    throw CheckpointError("rows " + rows_text(b, e) +
                          " lie outside the block state's " +
                          rows_text(begin, end));
  }
  const auto at = [&](pop::SSetId i) {
    return values.begin() +
           static_cast<std::ptrdiff_t>((i - begin) * width());
  };
  return State{b, e, mode, cols, {at(b), at(e)}};
}

BlockFitness::State BlockFitness::state() const {
  return State{begin_, end_, config_.fitness_mode, matrix_cols(),
               pairwise_cached() ? matrix_ : fitness_};
}

void BlockFitness::restore(State s) {
  if (s.begin != begin_ || s.end != end_ || s.mode != config_.fitness_mode ||
      s.cols != matrix_cols() ||
      s.values.size() != fitness_.size() * s.width()) {
    throw CheckpointError(
        "fitness state " + shape_text(s.begin, s.end, s.mode, s.cols) +
        " does not fit block " +
        shape_text(begin_, end_, config_.fitness_mode, matrix_cols()));
  }
  if (pairwise_cached()) {
    matrix_ = std::move(s.values);
    for (pop::SSetId i = begin_; i < end_; ++i) {
      ExactSum& sum = sums_[i - begin_] = ExactSum{};
      for (pop::SSetId j = 0; j < config_.ssets; ++j) sum.add(cell(i, j));
      fitness_[i - begin_] = sum.value() * row_scale(i);
    }
  } else {
    fitness_ = std::move(s.values);
  }
  if (ct_restores_ != nullptr) ct_restores_->inc();
}

double BlockFitness::fitness(pop::SSetId i) const {
  EGT_REQUIRE_MSG(i >= begin_ && i < end_, "fitness query outside block");
  return fitness_[i - begin_];
}

}  // namespace egt::core
