#include "core/fitness.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "util/check.hpp"

namespace egt::core {

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
    ct_cache_inserts_ = &metrics->counter("fitness.cache_inserts");
    ct_cache_prunes_ = &metrics->counter("fitness.cache_prunes");
    ct_restores_ = &metrics->counter("fitness.state_restores");
  }
  fitness_.assign(end_ - begin_, 0.0);
  if (pairwise_cached()) {
    matrix_.assign(static_cast<std::size_t>(end_ - begin_) * config_.ssets,
                   0.0);
  }
  if (config.agent_threads > 0) {
    agent_pool_ = std::make_unique<par::ThreadPool>(config.agent_threads);
  }
  if (config.sset_threads > 0 && end_ > begin_) {
    sset_pool_ = std::make_unique<par::ThreadPool>(config.sset_threads);
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
                               std::uint64_t gen_key, std::span<double> out,
                               std::uint64_t& games, bool allow_insert) {
  if (!dedup_) {
    eval_.payoffs(pop, pairs, gen_key, out);
    games += pairs.size();
    return;
  }
  // Strategy-pure pairs come from the class-pair cache, in pair order (a
  // miss plays the one game and, when allowed, caches it for the pairs
  // after it); the rest share one batched evaluation.
  thread_local std::vector<PairEvaluator::Pair> rest;
  thread_local std::vector<std::size_t> slot;
  thread_local std::vector<double> vals;
  rest.clear();
  slot.clear();
  const auto& classes = pop.classes();
  for (std::size_t t = 0; t < pairs.size(); ++t) {
    const pop::StrategyClass& ci = classes[pop.strategy_class(pairs[t].first)];
    const pop::StrategyClass& cj =
        classes[pop.strategy_class(pairs[t].second)];
    if (!eval_.strategy_pure(ci.strategy, cj.strategy)) {
      rest.push_back(pairs[t]);
      slot.push_back(t);
      continue;
    }
    const std::uint64_t key = game::Strategy::pair_key(ci.hash, cj.hash);
    const auto it = class_pay_.find(key);
    if (it != class_pay_.end()) {
      out[t] = it->second.payoff;
      continue;
    }
    out[t] = eval_.pair_payoff(ci.strategy, cj.strategy);
    ++games;
    // Pool workers run behind a prefill and must not mutate the cache;
    // recomputing a rare miss is correct either way (pure function).
    if (allow_insert) {
      class_pay_.emplace(key, ClassPay{out[t], ci.hash, cj.hash});
      if (ct_cache_inserts_ != nullptr) ct_cache_inserts_->inc();
    }
  }
  if (rest.empty()) return;
  if (vals.size() < rest.size()) vals.resize(rest.size());
  eval_.payoffs(pop, rest, gen_key, {vals.data(), rest.size()});
  games += rest.size();
  for (std::size_t k = 0; k < slot.size(); ++k) out[slot[k]] = vals[k];
}

void BlockFitness::prefill_pair(const pop::Population& pop, pop::ClassId cr,
                                pop::ClassId cc) {
  const auto& classes = pop.classes();
  const pop::StrategyClass& row = classes[cr];
  const pop::StrategyClass& col = classes[cc];
  if (!eval_.strategy_pure(row.strategy, col.strategy)) return;
  const std::uint64_t key = game::Strategy::pair_key(row.hash, col.hash);
  if (class_pay_.find(key) != class_pay_.end()) return;
  class_pay_.emplace(
      key, ClassPay{eval_.pair_payoff(row.strategy, col.strategy), row.hash,
                    col.hash});
  ++games_;
  if (ct_cache_inserts_ != nullptr) ct_cache_inserts_->inc();
}

void BlockFitness::prefill_class(const pop::Population& pop, pop::ClassId cr) {
  // Cover exactly the keys a well-mixed row of class `cr` can touch, so
  // games_played stays identical to the serial lazy path for any thread
  // count: every live column class — except the self pair of a singleton
  // class, which no (i, j != i) ever realizes.
  //
  // The Mem1Markov misses are gathered into one SoA batch (fed straight
  // from the population's interned class-table view) and run through a
  // single kernel call; other routes evaluate per pair. Lane arithmetic is
  // batch-size independent, so the cached values equal the per-pair path
  // bitwise, and each batched pair still counts as one game.
  const auto& classes = pop.classes();
  const pop::StrategyClass& row = classes[cr];
  game::batch::Mem1Batch batch;
  std::vector<const pop::StrategyClass*> cols;
  for (pop::ClassId cc = 0; cc < classes.size(); ++cc) {
    if (classes[cc].members == 0) continue;
    if (cc == cr && classes[cc].members < 2) continue;
    const pop::StrategyClass& col = classes[cc];
    if (eval_.route(row.strategy, col.strategy) !=
            PairEvaluator::Route::Mem1Markov ||
        !pop.mem1_batchable(cr) || !pop.mem1_batchable(cc)) {
      prefill_pair(pop, cr, cc);
      continue;
    }
    const std::uint64_t key = game::Strategy::pair_key(row.hash, col.hash);
    if (class_pay_.find(key) != class_pay_.end()) continue;
    batch.push_probs(pop.mem1_probs(cr), pop.mem1_probs(cc),
                     config_.game.noise);
    cols.push_back(&col);
  }
  if (batch.empty()) return;
  std::vector<double> vals(batch.size());
  eval_.mem1_batch_payoffs(batch, vals);
  for (std::size_t k = 0; k < cols.size(); ++k) {
    class_pay_.emplace(game::Strategy::pair_key(row.hash, cols[k]->hash),
                       ClassPay{vals[k], row.hash, cols[k]->hash});
    ++games_;
    if (ct_cache_inserts_ != nullptr) ct_cache_inserts_->inc();
  }
}

void BlockFitness::recompute_row(pop::SSetId i, const pop::Population& pop,
                                 std::uint64_t gen_key, Counts& counts,
                                 bool nested) {
  if (pgg_) {
    recompute_row_pgg(i, pop, gen_key, counts);
    return;
  }
  const std::size_t row = i - begin_;
  const bool use_agent_pool = agent_pool_ != nullptr && !nested;
  if (dedup_ && !nested) {
    // Serial control path: make every strategy-pure pair of this row a
    // guaranteed hit first — prefill_class batches the Mem1Markov misses
    // through one SoA kernel call, and the agent tier (when active) then
    // reads the cache from several threads without ever inserting.
    // Structured rows only ever touch their neighbours' classes.
    const pop::ClassId ci = pop.strategy_class(i);
    if (structured()) {
      for (pop::SSetId j : graph_->neighbors(i)) {
        prefill_pair(pop, ci, pop.strategy_class(j));
      }
    } else {
      prefill_class(pop, ci);
    }
  }
  // The row's pairs in the fixed order its sum walks: neighbours in list
  // order (structured), or every j != i ascending (well-mixed).
  thread_local std::vector<PairEvaluator::Pair> pairs;
  thread_local std::vector<double> vals;
  pairs.clear();
  if (structured()) {
    for (pop::SSetId j : graph_->neighbors(i)) pairs.emplace_back(i, j);
  } else {
    for (pop::SSetId j = 0; j < config_.ssets; ++j) {
      if (j != i) pairs.emplace_back(i, j);
    }
  }
  vals.resize(pairs.size());
  if (use_agent_pool) {
    // Agent tier: contiguous chunks of the row run concurrently, each as
    // one batched evaluation into its slice of `vals`; batching never
    // changes a pair's value, so the ordered sum below is bit-identical
    // to the serial path. (Workers see their own thread_locals, so they
    // get this thread's buffers as spans.)
    const std::span<const PairEvaluator::Pair> row_pairs = pairs;
    const std::span<double> row_vals = vals;
    std::atomic<std::uint64_t> games{0};
    agent_pool_->parallel_for(
        row_pairs.size(), [&](std::uint64_t b, std::uint64_t e) {
          std::uint64_t g = 0;
          pair_values(pop, row_pairs.subspan(b, e - b), gen_key,
                      row_vals.subspan(b, e - b), g, false);
          games.fetch_add(g, std::memory_order_relaxed);
        });
    counts.games += games.load(std::memory_order_relaxed);
  } else {
    pair_values(pop, pairs, gen_key, vals, counts.games, !nested);
  }
  counts.pairs += pairs.size();
  double sum = 0.0;
  for (std::size_t t = 0; t < pairs.size(); ++t) {
    if (cached()) matrix_[row * config_.ssets + pairs[t].second] = vals[t];
    sum += vals[t];
  }
  fitness_[row] = sum * row_scale(i);
}

void BlockFitness::evaluate_rows(const pop::Population& pop,
                                 std::uint64_t gen_key) {
  const std::uint64_t rows = end_ - begin_;
  if (dedup_) {
    // Cover exactly the strategy-pure pairs the rows below will touch,
    // serially and up front. Pool workers then only ever read the cache
    // (the hit set is guaranteed and games_played stays
    // thread-count-invariant), and the serial path inserts the same key
    // set it would have inserted lazily — but through prefill_class's SoA
    // batches instead of one kernel call per miss.
    if (structured()) {
      for (pop::SSetId i = begin_; i < end_; ++i) {
        const pop::ClassId ci = pop.strategy_class(i);
        for (pop::SSetId j : graph_->neighbors(i)) {
          prefill_pair(pop, ci, pop.strategy_class(j));
        }
      }
    } else {
      std::vector<pop::ClassId> row_classes;
      row_classes.reserve(rows);
      for (pop::SSetId i = begin_; i < end_; ++i) {
        row_classes.push_back(pop.strategy_class(i));
      }
      std::sort(row_classes.begin(), row_classes.end());
      row_classes.erase(std::unique(row_classes.begin(), row_classes.end()),
                        row_classes.end());
      for (pop::ClassId cr : row_classes) prefill_class(pop, cr);
    }
  }
  if (sset_pool_ == nullptr) {
    Counts counts;
    for (pop::SSetId i = begin_; i < end_; ++i) {
      recompute_row(i, pop, gen_key, counts, false);
    }
    pairs_ += counts.pairs;
    games_ += counts.games;
    return;
  }
  // SSet-row tier: rows are independent (each writes only its fitness and
  // matrix entries and its own Counts slot); every row keeps its fixed
  // j-order sum, so any thread count is bit-identical to serial.
  std::vector<Counts> per_row(rows);
  sset_pool_->parallel_for(rows, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t r = b; r < e; ++r) {
      recompute_row(begin_ + static_cast<pop::SSetId>(r), pop, gen_key,
                    per_row[r], true);
    }
  });
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

void BlockFitness::strategy_changed(pop::SSetId k, const pop::Population& pop,
                                    std::uint64_t generation) {
  if (!cached()) return;  // next begin_generation re-plays everything anyway
  Counts counts;
  if (pgg_) {
    // A single strategy change moves every group pool the SSet touches
    // (and, well-mixed, every row): recompute all owned rows. Row-local
    // and deterministic, so serial and parallel partitions agree on both
    // values and counters.
    for (pop::SSetId i = begin_; i < end_; ++i) {
      recompute_row(i, pop, generation, counts, false);
    }
    pairs_ += counts.pairs;
    games_ += counts.games;
    return;
  }
  if (k >= begin_ && k < end_) {
    recompute_row(k, pop, generation, counts, false);
  }
  // Column refresh: every owned (i, k) in one batched evaluation. The
  // fresh value comes from the class-pair cache when the pair is
  // strategy-pure (one game per new class pair), and matrix_ still holds
  // the pre-change value, so the fitness delta needs no old-class
  // bookkeeping.
  thread_local std::vector<PairEvaluator::Pair> pairs;
  thread_local std::vector<double> fresh;
  pairs.clear();
  for (pop::SSetId i = begin_; i < end_; ++i) {
    if (i == k) continue;
    if (structured() && !graph_->are_neighbors(i, k)) continue;
    pairs.emplace_back(i, k);
  }
  fresh.resize(pairs.size());
  pair_values(pop, pairs, generation, fresh, counts.games, true);
  counts.pairs += pairs.size();
  for (std::size_t t = 0; t < pairs.size(); ++t) {
    const pop::SSetId i = pairs[t].first;
    const std::size_t idx =
        static_cast<std::size_t>(i - begin_) * config_.ssets + k;
    fitness_[i - begin_] += (fresh[t] - matrix_[idx]) * row_scale(i);
    matrix_[idx] = fresh[t];
  }
  pairs_ += counts.pairs;
  games_ += counts.games;
  maybe_prune_cache(pop);
}

void BlockFitness::maybe_prune_cache(const pop::Population& pop) {
  if (!dedup_) return;
  const std::uint64_t live = pop.class_count();
  if (class_pay_.size() <= 256 + 8 * live * live) return;
  std::unordered_set<std::uint64_t> live_hashes;
  live_hashes.reserve(live);
  for (const pop::StrategyClass& c : pop.classes()) {
    if (c.members > 0) live_hashes.insert(c.hash);
  }
  for (auto it = class_pay_.begin(); it != class_pay_.end();) {
    if (live_hashes.count(it->second.a) == 0 ||
        live_hashes.count(it->second.b) == 0) {
      it = class_pay_.erase(it);
      if (ct_cache_prunes_ != nullptr) ct_cache_prunes_->inc();
    } else {
      ++it;
    }
  }
}

void BlockFitness::restore_state(std::vector<double> fitness,
                                 std::vector<double> matrix,
                                 std::vector<DedupEntry> cache) {
  EGT_REQUIRE_MSG(cached(),
                  "restore_state only applies to cached fitness modes "
                  "(Sampled mode recomputes from the population)");
  EGT_REQUIRE_MSG(fitness.size() == fitness_.size(),
                  "restored fitness size mismatch");
  EGT_REQUIRE_MSG(matrix.size() == matrix_.size(),
                  "restored payoff matrix size mismatch");
  fitness_ = std::move(fitness);
  matrix_ = std::move(matrix);
  if (ct_restores_ != nullptr) ct_restores_->inc();
  if (dedup_) {
    class_pay_.clear();
    class_pay_.reserve(cache.size());
    for (const DedupEntry& e : cache) {
      class_pay_.emplace(game::Strategy::pair_key(e.a, e.b),
                         ClassPay{e.payoff, e.a, e.b});
    }
  }
}

std::vector<BlockFitness::DedupEntry> BlockFitness::dedup_cache() const {
  std::vector<DedupEntry> out;
  out.reserve(class_pay_.size());
  for (const auto& [key, entry] : class_pay_) {
    out.push_back(DedupEntry{entry.a, entry.b, entry.payoff});
  }
  // Deterministic blob bytes regardless of hash-map iteration order.
  std::sort(out.begin(), out.end(), [](const DedupEntry& x, const DedupEntry& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  return out;
}

double BlockFitness::fitness(pop::SSetId i) const {
  EGT_REQUIRE_MSG(i >= begin_ && i < end_, "fitness query outside block");
  return fitness_[i - begin_];
}

}  // namespace egt::core
