#include "game/ipd.hpp"

#include "game/batch.hpp"
#include "util/check.hpp"

namespace egt::game {

namespace {

inline Move next_move(const PureStrategy& s, State st, util::StreamRng&) {
  return s.move(st);
}

inline Move next_move(const MixedStrategy& s, State st, util::StreamRng& rng) {
  return s.move(st, rng);
}

}  // namespace

IpdEngine::IpdEngine(int memory, IpdParams params, LookupMode mode)
    : params_(params), codec_(memory), mode_(mode) {
  EGT_REQUIRE_MSG(params.rounds > 0, "IPD needs at least one round");
  EGT_REQUIRE_MSG(params.noise >= 0.0 && params.noise <= 1.0,
                  "noise out of [0,1]");
  if (mode_ == LookupMode::LinearSearch) {
    table_.emplace(memory);
  }
}

// The round loop: LookupMode::LinearSearch's ablation path and the
// executable reference the lane kernel is checked against.
template <class StratA, class StratB>
GameResult IpdEngine::run(const StratA& a, const StratB& b,
                          util::StreamRng& rng) const {
  GameResult res;
  res.rounds = params_.rounds;

  State view_a = StateCodec::initial();
  State view_b = StateCodec::initial();
  const bool noisy = params_.noise > 0.0;

  for (std::uint32_t r = 0; r < params_.rounds; ++r) {
    const State sa = table_->find_state(view_a);
    const State sb = table_->find_state(view_b);
    Move ma = next_move(a, sa, rng);
    Move mb = next_move(b, sb, rng);
    if (noisy) {
      if (util::bernoulli(rng, params_.noise)) ma = opposite(ma);
      if (util::bernoulli(rng, params_.noise)) mb = opposite(mb);
    }
    res.payoff_a += params_.payoff.payoff(ma, mb);
    res.payoff_b += params_.payoff.payoff(mb, ma);
    res.coop_a += ma == Move::Cooperate ? 1u : 0u;
    res.coop_b += mb == Move::Cooperate ? 1u : 0u;
    view_a = codec_.push(view_a, ma, mb);
    view_b = codec_.push(view_b, mb, ma);
  }
  return res;
}

GameResult IpdEngine::play(const Strategy& a, const Strategy& b,
                           util::StreamRng rng) const {
  EGT_REQUIRE_MSG(a.memory() == memory() && b.memory() == memory(),
                  "strategy memory depth must match the engine");
  if (mode_ == LookupMode::Indexed) {
    return play_indexed(batch::Player::of(a), batch::Player::of(b), rng);
  }
  if (a.is_pure() && b.is_pure()) return run(a.as_pure(), b.as_pure(), rng);
  if (a.is_pure()) return run(a.as_pure(), b.as_mixed(), rng);
  if (b.is_pure()) return run(a.as_mixed(), b.as_pure(), rng);
  return run(a.as_mixed(), b.as_mixed(), rng);
}

GameResult IpdEngine::play(const PureStrategy& a, const PureStrategy& b,
                           util::StreamRng rng) const {
  EGT_REQUIRE_MSG(a.memory() == memory() && b.memory() == memory(),
                  "strategy memory depth must match the engine");
  if (mode_ == LookupMode::Indexed) {
    return play_indexed(batch::Player::of(a), batch::Player::of(b), rng);
  }
  return run(a, b, rng);
}

GameResult IpdEngine::play_indexed(const batch::Player& a,
                                   const batch::Player& b,
                                   util::StreamRng rng) const {
  // A batch of one through the sampled lane kernel (which hands
  // deterministic games to the cycle walker): the kernel is bitwise
  // identical to run() and, like it, consumes the stream from its current
  // position.
  const batch::StreamGame game{a, b, rng};
  GameResult res;
  batch::play_stream_games({&game, 1}, memory(), params_, {&res, 1});
  return res;
}

}  // namespace egt::game
