// Fitness evaluation (the game-dynamics tier).
//
// An SSet's relative fitness for a generation is the sum of its agents'
// payoffs against every other SSet's strategy (paper §IV-A/§IV-D). Each
// ordered pair (i, j) is one agent-vs-strategy game whose RNG stream is
// keyed by (seed, generation-key, i, j), so the value is a pure function of
// the configuration — independent of evaluation order, rank count, or which
// rank computes it.
//
// BlockFitness maintains the fitness of a contiguous row block [begin, end)
// of SSets. The serial engine uses one block covering everything; each
// parallel rank owns one block (memory then scales as rows/rank * ssets,
// mirroring the paper's per-node strategy-space storage).
//
// Two orthogonal accelerations sit on top of the brute-force block:
//
//  * Strategy-interned dedup (config.dedup, Analytic mode): whenever the
//    pairwise payoff is a *pure function of the strategy pair* — the
//    dedup-eligibility rule, satisfied exactly where an exact method
//    applies (deterministic pure pair via exact_pure_game, or memory-one
//    via expected_game_mem1) — the block reuses one value for every SSet
//    pair in the same (class_i, class_j) of the population's interned
//    class table. The payoff matrix is the only cache: a call evaluates
//    each strategy-pure pair once per distinct ClassId on the side that
//    varies, a well-mixed row copies an owned row of the same class, and
//    a strategy change reads the fresh column from the column of another
//    member of the new class. Row sums still walk every j in fixed order,
//    so fitness, matrix and trajectories are bit-identical to brute force;
//    only games_played drops. Pairs whose payoff is (i, j)-keyed
//    (Sampled/SampledFrozen streams, the Analytic fall-through for
//    stochastic memory>=2) are never deduplicated.
//
//  * SSet-row tier (config.sset_threads): initialize / begin_generation
//    evaluate independent rows concurrently on a par::ThreadPool; each
//    row's sum keeps its fixed j order, so results stay bit-identical for
//    any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "game/batch.hpp"
#include "game/markov.hpp"
#include "game/spec/chain.hpp"
#include "obs/metrics.hpp"
#include "par/threadpool.hpp"
#include "pop/population.hpp"

namespace egt::core {

/// Stateless per-pair payoff evaluation under a SimConfig.
class PairEvaluator {
 public:
  explicit PairEvaluator(const SimConfig& config);

  /// Which kernel evaluates a strategy pair (the DESIGN.md §12 dispatch
  /// rules). Everything except SampledStream is a pure function of the
  /// strategy pair — the dedup-eligibility rule.
  enum class Route {
    NWaySpec,       ///< m-action spec chain (spec::requires_spec_chain) —
                    ///< never the 2x2 batch kernels
    PureExact,      ///< deterministic pure pair, zero noise: bit-packed
                    ///< cycle walker (batch::exact_pure_game_fast)
    Mem1Markov,     ///< memory-one analytic: SoA batch kernel
                    ///< (batch::expected_totals_mem1, AVX2 or scalar)
    SampledStream,  ///< (gen_key, i, j)-keyed stream play — never
                    ///< deduplicated; binary games run through the
                    ///< sampled lane kernel (batch::play_stream_games)
  };
  Route route(const game::Strategy& si,
              const game::Strategy& sj) const noexcept;

  /// Batch twin of pair_payoff for Route::Mem1Markov pairs: out[k] gets
  /// the row-side payoff of the batch's pair k, each bit-identical to
  /// pair_payoff on that pair (lane arithmetic is batch-size independent).
  void mem1_batch_payoffs(const game::batch::Mem1Batch& batch,
                          std::span<double> out) const;

  /// Payoff of SSet `i` playing SSet `j` (i's side), using the stream keyed
  /// by (seed, gen_key, i, j). For FitnessMode::Analytic the value is an
  /// expectation and gen_key is ignored where exact methods apply.
  double payoff(const pop::Population& pop, pop::SSetId i, pop::SSetId j,
                std::uint64_t gen_key) const;

  /// An ordered SSet pair (row player, column player).
  using Pair = std::pair<pop::SSetId, pop::SSetId>;

  /// Batch twin of payoff(): out[t] = payoff(pop, pairs[t].first,
  /// pairs[t].second, gen_key), bitwise. Mem1Markov pairs share one SoA
  /// kernel call and binary SampledStream pairs one sampled lane-kernel
  /// call; the rest (n-way, PureExact, the LinearSearch ablation) evaluate
  /// one by one.
  void payoffs(const pop::Population& pop, std::span<const Pair> pairs,
               std::uint64_t gen_key, std::span<double> out) const;

  /// Dedup-eligibility rule: true when payoff(·) for this strategy pair is
  /// a pure function of (si, sj) — an exact method applies in Analytic
  /// mode. Sampled streams (and the Analytic fall-through for stochastic
  /// memory>=2 pairs) are keyed by (gen_key, i, j) and are never eligible.
  bool strategy_pure(const game::Strategy& si,
                     const game::Strategy& sj) const noexcept;

  /// Payoff of a strategy-pure pair (si's side). Must only be called when
  /// strategy_pure(si, sj); returns exactly the value payoff() computes
  /// for any (i, j, gen_key) mapping to these strategies.
  double pair_payoff(const game::Strategy& si, const game::Strategy& sj) const;

  const game::IpdEngine& engine() const noexcept { return engine_; }

 private:
  SimConfig config_;
  game::IpdEngine engine_;
};

class BlockFitness {
 public:
  /// `graph` restricts game play to neighbours (null = well-mixed, the
  /// paper's population; the engines pass make_interaction_graph output).
  /// `metrics`, when given, receives the cold-path "fitness.*" counters
  /// (state restores); the engines pass their own — per-rank, per-job —
  /// registry so concurrent simulations never share counters. Must outlive
  /// the block.
  BlockFitness(const SimConfig& config, pop::SSetId row_begin,
               pop::SSetId row_end,
               std::shared_ptr<const pop::InteractionGraph> graph = nullptr,
               obs::MetricsRegistry* metrics = nullptr);

  pop::SSetId row_begin() const noexcept { return begin_; }
  pop::SSetId row_end() const noexcept { return end_; }

  /// Full evaluation of the block (generation key = current generation for
  /// Sampled, 0 for the cached modes).
  void initialize(const pop::Population& pop);

  /// Called at the top of every generation *before* Nature acts.
  /// Sampled mode re-plays all games with this generation's streams; the
  /// cached modes are no-ops here.
  void begin_generation(const pop::Population& pop, std::uint64_t generation);

  /// Called after SSet `k` changed strategy in `generation`. Cached modes
  /// refresh row k (if owned) and every owned entry against k. `pop` may
  /// differ from the population the block last saw only at SSet k: the
  /// dedup reuse rules read every other matrix column as current.
  void strategy_changed(pop::SSetId k, const pop::Population& pop,
                        std::uint64_t generation);

  /// Fitness of an owned SSet.
  double fitness(pop::SSetId i) const;

  /// Fitness of the whole block, indexed by (i - row_begin).
  std::span<const double> block() const noexcept { return fitness_; }

  /// Cached payoff matrix (rows x ssets, cached modes only; empty for
  /// Sampled). Exposed so the ft layer can checkpoint a block's full
  /// evaluation state.
  std::span<const double> payoff_matrix() const noexcept { return matrix_; }

  /// Recovery fast path (cached modes only): adopt a previously computed
  /// block state instead of re-evaluating. `fitness` must have one entry
  /// per owned row and `matrix` rows x ssets entries. The values must come
  /// from a block computed over the same population — the ft layer
  /// guarantees this with a population hash check. The matrix is the whole
  /// dedup state, so a restored block reuses values exactly as the block
  /// that produced them would have.
  void restore_state(std::vector<double> fitness, std::vector<double> matrix);

  /// True when this block deduplicates strategy-pure pairs.
  bool dedup_active() const noexcept { return dedup_; }

  /// Logical ordered pairs evaluated so far — each (i, j) an owned row
  /// sums over counts once, whether its value came from a fresh game or
  /// was reused. This is the counter the serial/parallel equality tests
  /// rely on.
  std::uint64_t pairs_evaluated() const noexcept { return pairs_; }

  /// Games actually played (expected-payoff computations included) —
  /// <= pairs_evaluated(); the gap is the dedup saving.
  std::uint64_t games_played() const noexcept { return games_; }

 private:
  /// Work done by one row evaluation, accumulated thread-locally so the
  /// SSet-row tier never races on the block counters.
  struct Counts {
    std::uint64_t pairs = 0;
    std::uint64_t games = 0;
  };

  /// "No SSet": recompute_row without a source row to copy.
  static constexpr pop::SSetId kNoSSet = ~pop::SSetId{0};

  bool cached() const noexcept {
    return config_.fitness_mode != FitnessMode::Sampled;
  }
  /// Cached modes keep the rows x ssets payoff matrix — except public
  /// goods, whose fitness is group-pooled, not pairwise (no matrix; a
  /// strategy change recomputes every owned row instead of a column).
  bool pairwise_cached() const noexcept { return cached() && !pgg_; }
  bool structured() const noexcept {
    return graph_ != nullptr && !graph_->is_complete();
  }
  /// Well-mixed dedup: the matrix-reuse rules (row copies, column reads)
  /// apply. Structured blocks dedupe within one call only.
  bool reuse_matrix() const noexcept { return dedup_ && !structured(); }
  double row_scale(pop::SSetId i) const noexcept;
  double& cell(pop::SSetId i, pop::SSetId j) noexcept {
    return matrix_[static_cast<std::size_t>(i - begin_) * config_.ssets + j];
  }

  /// Public goods group play (GameKind::PublicGoods, DESIGN.md §10).
  /// Groups: structured populations play one group {t} ∪ N(t) per SSet t;
  /// the well-mixed population plays one global group (pgg_k == 0) or the
  /// ssets ring windows {t .. t+k-1 mod n}. Each group's pool earns
  /// r * cost * (sum of member contributions) / |group|, and each member
  /// pays cost per own contribution.
  std::uint32_t pgg_group_count(pop::SSetId i) const noexcept;

  /// Effective contribution rounds of SSet j this generation: the analytic
  /// expectation rounds * p' under Analytic, a Bernoulli(p') sample per
  /// round on the (gen_key, j, j)-keyed stream otherwise (the self-pair
  /// key never collides with the i != j pair-game streams).
  double pgg_contrib(const pop::Population& pop, pop::SSetId j,
                     std::uint64_t gen_key) const;

  /// Row evaluation for the public goods kind: row-local and deterministic
  /// (safe from SSet-pool workers; never touches the matrix).
  void recompute_row_pgg(pop::SSetId i, const pop::Population& pop,
                         std::uint64_t gen_key, Counts& counts);

  /// Values of ordered pairs that share one fixed side, out[t]
  /// bit-identical to eval_.payoff on pairs[t]. In dedup mode each
  /// strategy-pure pair is evaluated once per distinct ClassId of the side
  /// that varies (`vary_row`: pairs[t].first, else pairs[t].second), every
  /// other pair once. The distinct evaluations then run as one
  /// eval_.payoffs batch, split across `pool` when given, so `games` (the
  /// evaluation count) never depends on the thread count.
  void pair_values(const pop::Population& pop,
                   std::span<const PairEvaluator::Pair> pairs, bool vary_row,
                   std::uint64_t gen_key, std::span<double> out,
                   std::uint64_t& games, par::ThreadPool* pool) const;

  /// Rebuild owned row i. With a `source` (an owned SSet of i's class
  /// whose row is current) the strategy-pure entries are copied from it:
  /// (i, j) = (source, j) for j not in {i, source}, (i, source) =
  /// (source, i); everything else is evaluated. `nested` is set inside the
  /// SSet-row pool, which must not use the agent tier.
  void recompute_row(pop::SSetId i, const pop::Population& pop,
                     std::uint64_t gen_key, Counts& counts, bool nested,
                     pop::SSetId source = kNoSSet);

  /// initialize / begin_generation body: all owned rows, through the
  /// SSet-row pool when configured.
  void evaluate_rows(const pop::Population& pop, std::uint64_t gen_key);

  SimConfig config_;
  PairEvaluator eval_;
  std::shared_ptr<const pop::InteractionGraph> graph_;
  pop::SSetId begin_;
  pop::SSetId end_;
  bool dedup_ = false;
  bool pgg_ = false;  ///< GameKind::PublicGoods: group-pooled fitness
  std::vector<double> fitness_;         // per owned row (scaled sums)
  std::vector<double> matrix_;          // cached modes: rows x ssets payoffs
  std::unique_ptr<par::ThreadPool> agent_pool_;  // paper's second tier
  std::unique_ptr<par::ThreadPool> sset_pool_;   // SSet-row tier
  std::uint64_t pairs_ = 0;
  std::uint64_t games_ = 0;
  // Cold-path instrumentation (null when the block runs unobserved).
  obs::Counter* ct_restores_ = nullptr;
};

}  // namespace egt::core
