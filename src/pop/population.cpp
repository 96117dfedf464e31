#include "pop/population.hpp"

#include <algorithm>

#include "game/batch.hpp"
#include "util/check.hpp"

namespace egt::pop {

Population::Population(std::vector<game::Strategy> strategies)
    : strategies_(std::move(strategies)),
      fitness_(strategies_.size(), 0.0) {
  EGT_REQUIRE_MSG(!strategies_.empty(), "population cannot be empty");
  const int memory = strategies_.front().memory();
  for (const auto& s : strategies_) {
    EGT_REQUIRE_MSG(s.memory() == memory,
                    "all SSets must share one memory depth");
  }
  mirrors_ = game::batch::MirrorTables(memory);
  mirrors_.reserve(strategies_.size());
  class_of_.reserve(strategies_.size());
  for (const auto& s : strategies_) class_of_.push_back(intern(s));
}

Population Population::random_pure(SSetId size, int memory,
                                   util::Xoshiro256& rng) {
  std::vector<game::Strategy> strategies;
  strategies.reserve(size);
  for (SSetId i = 0; i < size; ++i) {
    strategies.emplace_back(game::PureStrategy::random(memory, rng));
  }
  return Population(std::move(strategies));
}

Population Population::random_mixed(SSetId size, int memory,
                                    util::Xoshiro256& rng) {
  std::vector<game::Strategy> strategies;
  strategies.reserve(size);
  for (SSetId i = 0; i < size; ++i) {
    strategies.emplace_back(game::MixedStrategy::random(memory, rng));
  }
  return Population(std::move(strategies));
}

Population Population::random_nway(SSetId size, std::uint32_t actions,
                                   bool pure, util::Xoshiro256& rng) {
  std::vector<game::Strategy> strategies;
  strategies.reserve(size);
  for (SSetId i = 0; i < size; ++i) {
    if (pure) {
      strategies.emplace_back(game::NWayStrategy::pure_action(
          actions,
          static_cast<std::uint32_t>(util::uniform_below(rng, actions))));
    } else {
      strategies.emplace_back(game::NWayStrategy::random(actions, rng));
    }
  }
  return Population(std::move(strategies));
}

void Population::set_strategy(SSetId i, game::Strategy s) {
  EGT_REQUIRE(i < size());
  EGT_REQUIRE_MSG(s.memory() == memory(),
                  "strategy memory depth must match the population");
  // Intern before releasing: re-assigning an SSet its current strategy
  // must not free and immediately re-allocate the class slot.
  const ClassId fresh = intern(s);
  release(class_of_[i]);
  class_of_[i] = fresh;
  strategies_[i] = std::move(s);
}

ClassId Population::intern(game::Strategy s) {
  const std::uint64_t h = s.hash();
  auto& chain = by_hash_[h];
  for (ClassId c : chain) {
    if (classes_[c].strategy == s) {
      ++classes_[c].members;
      return c;
    }
  }
  ClassId c;
  if (!free_slots_.empty()) {
    c = free_slots_.back();
    free_slots_.pop_back();
    classes_[c] = StrategyClass{std::move(s), h, 1};
  } else {
    c = static_cast<ClassId>(classes_.size());
    classes_.push_back(StrategyClass{std::move(s), h, 1});
  }
  chain.push_back(c);
  ++live_classes_;
  refresh_mem1(c);
  refresh_mirror(c);
  return c;
}

void Population::refresh_mirror(ClassId c) {
  const game::Strategy& s = classes_[c].strategy;
  if (s.is_pure()) mirrors_.set(c, s.as_pure());
}

void Population::refresh_mem1(ClassId c) {
  const auto need = static_cast<std::size_t>(c) + 1;
  if (mem1_valid_.size() < need) {
    mem1_valid_.resize(need, 0);
    mem1_probs_.resize(4 * need, 0.0);
  }
  const game::Strategy& s = classes_[c].strategy;
  if (s.is_nway() || s.memory() != 1) {
    mem1_valid_[c] = 0;
    return;
  }
  for (int o = 0; o < 4; ++o) {
    mem1_probs_[4 * static_cast<std::size_t>(c) + o] =
        s.coop_prob(static_cast<game::State>(o));
  }
  mem1_valid_[c] = 1;
}

void Population::release(ClassId c) {
  StrategyClass& slot = classes_[c];
  EGT_REQUIRE(slot.members > 0);
  if (--slot.members > 0) return;
  auto it = by_hash_.find(slot.hash);
  auto& chain = it->second;
  chain.erase(std::find(chain.begin(), chain.end(), c));
  if (chain.empty()) by_hash_.erase(it);
  slot.strategy = game::Strategy();  // drop the payload of a free slot
  slot.hash = 0;
  free_slots_.push_back(c);
  --live_classes_;
  if (c < mem1_valid_.size()) mem1_valid_[c] = 0;
}

std::uint64_t Population::table_hash() const noexcept {
  // The same fold as over strategies_[i].hash(): each class slot holds its
  // strategy's hash, so no strategy is rehashed.
  std::uint64_t h = util::mix64(size());
  for (const ClassId c : class_of_) h = util::mix64(h ^ classes_[c].hash);
  return h;
}

}  // namespace egt::pop
