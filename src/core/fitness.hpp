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
// mirroring the paper's per-node strategy-space storage). A row's fitness
// is its exact payoff sum (ExactSum) rounded once, times the row's scale;
// the payoff matrix of the cached modes is the block's only state.
//
// Two orthogonal accelerations sit on top of the brute-force block:
//
//  * Strategy-interned dedup (config.dedup, Analytic mode): a payoff that
//    is a pure function of the strategy pair (strategy_pure) is evaluated
//    once per class pair of the population's interned class table and
//    reused from the payoff matrix, the only cache (the reuse rules are in
//    DESIGN.md §5). Fitness, matrix and trajectories are bit-identical to
//    brute force; only games_played drops.
//
//  * One thread pool (config.threads): whole-block passes split rows, a
//    strategy change's row rebuild splits that row's pairs; bit-identical
//    for any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/wire.hpp"
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

/// A payoff sum in 2^-64 fixed point, exact for terms of magnitude >= 2^-11
/// (smaller ones truncate) within SimConfig::validate's bound: it does not
/// depend on the order or history of its terms. value() rounds it once.
class ExactSum {
 public:
  __extension__ typedef __int128 Fixed;

  /// v * 2^64 truncated toward zero, from the integer part and the
  /// fraction (which is exact in a double) converted apart; |v| < 2^63.
  static Fixed fixed(double v) noexcept {
    const auto whole = static_cast<std::int64_t>(v);
    const auto frac = static_cast<std::int64_t>(
        (v - static_cast<double>(whole)) * 0x1p63);
    return (Fixed(whole) << 64) + (Fixed(frac) << 1);
  }
  void add(double v) noexcept { acc_ += fixed(v); }
  double value() const noexcept { return static_cast<double>(acc_) * 0x1p-64; }

 private:
  Fixed acc_ = 0;
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

  /// Full evaluation of the block (generation key 0).
  void initialize(const pop::Population& pop);

  /// Values persist across generations (Sampled re-plays every pair).
  bool cached() const noexcept {
    return config_.fitness_mode != FitnessMode::Sampled;
  }

  /// Called at the top of every generation *before* Nature acts.
  /// Sampled mode re-plays all games with this generation's streams; the
  /// cached modes are no-ops here.
  void begin_generation(const pop::Population& pop, std::uint64_t generation);

  /// A payoff row held by another block: row `sset` of its matrix, all
  /// ssets entries, current for every column but possibly `sset`'s own.
  struct SourceRow {
    pop::SSetId sset = 0;
    std::span<const double> values;
  };

  /// Called after SSet `k` changed strategy in `generation`. Cached modes
  /// refresh row k (if owned) and every owned entry against k. `pop` may
  /// differ from the population the block last saw only at SSet k: the
  /// dedup reuse rules read every other matrix column as current.
  ///
  /// `source` (the teacher's row in an ft adoption whose teacher lives on
  /// another rank) must have been read before this change, with every
  /// earlier change folded in. When the matrix reuses rows, k is owned
  /// and `source->sset` is in k's new class, row k copies its
  /// strategy-pure entries from it (as it would from an owned row of the
  /// class) instead of replaying them: (k, j) = values[j] for j not in
  /// {k, sset}, and (k, sset) = values[m] for another member m of the
  /// class, else one game (values[k] is stale). Values and pair counts
  /// are exactly those of a rebuild; only games_played drops. Returns
  /// true when row k was built from `source`.
  bool strategy_changed(pop::SSetId k, const pop::Population& pop,
                        std::uint64_t generation,
                        const SourceRow* source = nullptr);

  /// Row i of the payoff matrix in the form strategy_changed's `source`
  /// takes; empty unless this block reuses rows (well-mixed dedup).
  std::span<const double> source_row(pop::SSetId i) const;

  /// Fitness of an owned SSet.
  double fitness(pop::SSetId i) const;

  /// Fitness of the whole block, indexed by (i - row_begin).
  std::span<const double> block() const noexcept { return fitness_; }

  /// The block's whole evaluation state, as every checkpoint carries it:
  /// the row range, the fitness mode that computed it, the matrix width
  /// (ssets for pairwise cached blocks, 0 for Sampled and public goods)
  /// and the values: the payoff matrix when there is one — it defines the
  /// fitness, and is also the whole dedup state and, for SampledFrozen,
  /// the only record of when each pair was last played — else the per-row
  /// fitness. A block restored from it continues exactly as the block
  /// that produced it would have.
  struct State {
    pop::SSetId begin = 0;
    pop::SSetId end = 0;
    FitnessMode mode = FitnessMode::Sampled;
    std::uint32_t cols = 0;      ///< matrix width
    std::vector<double> values;  ///< (end - begin) * width(), row-major

    std::size_t width() const noexcept { return cols == 0 ? 1 : cols; }

    /// Wire layout: u32 begin, u32 end, u8 mode, u32 cols, the values.
    void encode(wire::Writer& w) const;
    /// Throws CheckpointError on truncation, an inverted range or an
    /// unknown mode. `with_fitness` reads the v4 engine-checkpoint layout,
    /// whose per-row fitness before a matrix is dropped.
    static State decode(wire::Reader& r, bool with_fitness = false);
    /// Rows [b, e); throws CheckpointError unless they lie inside
    /// [begin, end).
    State slice(pop::SSetId b, pop::SSetId e) const;
  };

  State state() const;

  /// Adopt a captured state instead of evaluating (a matrix is re-summed).
  /// The values must come from a block computed over the same population
  /// and history — the checkpoint headers (config fingerprint, table hash)
  /// guarantee this. Throws CheckpointError when the state's shape (row
  /// range, fitness mode, matrix width, value count) does not match this
  /// block: the values of one mode mean something else in another
  /// (Analytic and SampledFrozen blocks have the same matrix width).
  void restore(State s);

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
  /// Work done by one row evaluation, accumulated thread-locally so pool
  /// workers never race on the block counters.
  struct Counts {
    std::uint64_t pairs = 0;
    std::uint64_t games = 0;
  };

  /// "No SSet": recompute_row without a source row to copy.
  static constexpr pop::SSetId kNoSSet = ~pop::SSetId{0};

  /// Cached modes keep the rows x ssets payoff matrix — except public
  /// goods, whose fitness is group-pooled, not pairwise (no matrix; a
  /// strategy change recomputes every owned row instead of a column).
  bool pairwise_cached() const noexcept { return cached() && !pgg_; }
  std::uint32_t matrix_cols() const noexcept {
    return pairwise_cached() ? config_.ssets : 0;
  }
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
  /// (safe from pool workers; never touches the matrix).
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

  /// Rebuild owned row i, its pairs split across `pool` when given. With
  /// a `copy` (the row of an SSet of i's class) the strategy-pure entries
  /// come from it: (i, j) = values[j] for j not in {i, sset},
  /// (i, sset) = values[mirror] — mirror is i for a current owned row,
  /// kNoSSet when no entry equals (i, sset); everything else is evaluated.
  void recompute_row(pop::SSetId i, const pop::Population& pop,
                     std::uint64_t gen_key, Counts& counts,
                     par::ThreadPool* pool, const SourceRow* copy = nullptr,
                     pop::SSetId mirror = kNoSSet);

  /// Every owned row, rows split across the pool.
  void evaluate_rows(const pop::Population& pop, std::uint64_t gen_key);

  SimConfig config_;
  PairEvaluator eval_;
  std::shared_ptr<const pop::InteractionGraph> graph_;
  pop::SSetId begin_;
  pop::SSetId end_;
  bool dedup_ = false;
  bool pgg_ = false;  ///< GameKind::PublicGoods: group-pooled fitness
  std::vector<double> fitness_;  // per owned row (scaled sums)
  std::vector<double> matrix_;   // pairwise cached: rows x ssets payoffs
  std::vector<ExactSum> sums_;   // pairwise cached: each matrix row's sum
  std::unique_ptr<par::ThreadPool> pool_;  // config.threads workers
  std::uint64_t pairs_ = 0;
  std::uint64_t games_ = 0;
  // Cold-path instrumentation (null when the block runs unobserved).
  obs::Counter* ct_restores_ = nullptr;
};

}  // namespace egt::core
