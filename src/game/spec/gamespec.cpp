#include "game/spec/gamespec.hpp"

#include <cstring>
#include <sstream>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace egt::game {

double GameSpec::payoff_of(std::uint32_t mine, std::uint32_t theirs) const {
  EGT_REQUIRE(mine < actions && theirs < actions);
  if (row_payoff.empty()) {
    // 2-action symmetric: the PayoffMatrix view is authoritative.
    return payoff.payoff(from_bit(static_cast<int>(mine)),
                         from_bit(static_cast<int>(theirs)));
  }
  return row_payoff[static_cast<std::size_t>(mine) * actions + theirs];
}

double GameSpec::col_payoff_of(std::uint32_t theirs,
                               std::uint32_t mine) const {
  if (!col_payoff.empty()) {
    return col_payoff[static_cast<std::size_t>(theirs) * actions + mine];
  }
  // Symmetric: the column player's payoff is the row table with the roles
  // swapped.
  return payoff_of(theirs, mine);
}

std::string GameSpec::label(std::uint32_t a) const {
  if (a < labels.size()) return labels[a];
  if (actions == 2) return a == 0 ? "C" : "D";
  return std::string("a").append(std::to_string(a));
}

std::uint64_t GameSpec::matrix_hash() const noexcept {
  std::uint64_t h = util::mix64(static_cast<std::uint64_t>(kind) + 1);
  auto mixin = [&h](std::uint64_t v) { h = util::mix64(h ^ v); };
  auto mixd = [&](double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    mixin(bits);
  };
  mixin(actions);
  mixin(static_cast<std::uint64_t>(play));
  mixin(rounds);
  mixd(noise);
  if (kind == GameKind::PublicGoods) {
    mixd(pgg_r);
    mixd(pgg_cost);
    mixin(pgg_k);
    return h;
  }
  // Canonical table: the effective row-major entries, whichever member
  // holds them, so a 2-action spec hashes the same through either view.
  for (std::uint32_t a = 0; a < actions; ++a) {
    for (std::uint32_t b = 0; b < actions; ++b) mixd(payoff_of(a, b));
  }
  mixin(col_payoff.empty() ? 0 : 1);
  for (double v : col_payoff) mixd(v);
  return h;
}

void GameSpec::validate() const {
  EGT_REQUIRE_MSG(rounds > 0, "need at least one round per game");
  EGT_REQUIRE_MSG(noise >= 0.0 && noise <= 1.0, "noise out of [0,1]");
  EGT_REQUIRE_MSG(labels.empty() || labels.size() == actions,
                  "labels must cover every action (or be empty)");
  if (kind == GameKind::PublicGoods) {
    EGT_REQUIRE_MSG(actions == 2,
                    "the public goods game is over binary contributions");
    EGT_REQUIRE_MSG(row_payoff.empty() && col_payoff.empty(),
                    "public goods games take pgg_* parameters, not a table");
    EGT_REQUIRE_MSG(pgg_r > 0.0, "pgg_r must be positive");
    EGT_REQUIRE_MSG(pgg_cost > 0.0, "pgg_cost must be positive");
    EGT_REQUIRE_MSG(pgg_k == 0 || pgg_k >= 2,
                    "pgg_k must be 0 (auto) or at least 2");
    return;
  }
  EGT_REQUIRE_MSG(actions >= 2, "a matrix game needs at least two actions");
  const std::size_t cells =
      static_cast<std::size_t>(actions) * actions;
  if (actions == 2) {
    EGT_REQUIRE_MSG(row_payoff.empty() || row_payoff.size() == cells,
                    "row_payoff must be empty (PayoffMatrix view) or 2x2");
  } else {
    EGT_REQUIRE_MSG(row_payoff.size() == cells,
                    "row_payoff must hold actions^2 entries");
  }
  EGT_REQUIRE_MSG(col_payoff.empty() || col_payoff.size() == cells,
                  "col_payoff must be empty (symmetric) or actions^2");
  if (uses_nway() || play == PlayMode::OneShot) {
    EGT_REQUIRE_MSG(play == PlayMode::OneShot || actions == 2,
                    "m >= 3 matrix games play one-shot stage games");
  }
}

std::string GameSpec::describe() const {
  std::ostringstream os;
  os << display_name << ": ";
  if (kind == GameKind::PublicGoods) {
    os << "public goods (r=" << pgg_r << ", cost=" << pgg_cost << ", k="
       << (pgg_k == 0 ? std::string("auto") : std::to_string(pgg_k)) << ")";
    return os.str();
  }
  os << actions << "-action " << (col_payoff.empty() ? "symmetric" : "bimatrix")
     << " matrix game";
  if (actions == 2 && row_payoff.empty()) {
    os << " " << payoff.to_string();
  }
  os << (play == PlayMode::OneShot ? ", one-shot" : ", iterated");
  return os.str();
}

GameSpec GameSpec::matrix2(std::string name, const PayoffMatrix& m,
                           std::vector<std::string> labels,
                           std::uint32_t rounds) {
  GameSpec s;
  s.display_name = std::move(name);
  s.payoff = m;
  s.labels = std::move(labels);
  s.rounds = rounds;
  return s;
}

GameSpec GameSpec::matrix_n(std::string name, std::uint32_t actions,
                            std::vector<double> row_major,
                            std::vector<std::string> labels,
                            std::uint32_t rounds) {
  GameSpec s;
  s.display_name = std::move(name);
  s.actions = actions;
  s.row_payoff = std::move(row_major);
  s.labels = std::move(labels);
  s.play = PlayMode::OneShot;
  s.rounds = rounds;
  s.validate();
  return s;
}

GameSpec GameSpec::public_goods(std::string name, double r, double cost,
                                std::uint32_t k, std::uint32_t rounds) {
  GameSpec s;
  s.display_name = std::move(name);
  s.kind = GameKind::PublicGoods;
  s.play = PlayMode::OneShot;
  s.pgg_r = r;
  s.pgg_cost = cost;
  s.pgg_k = k;
  s.rounds = rounds;
  s.validate();
  return s;
}

bool operator==(const GameSpec& a, const GameSpec& b) noexcept {
  return a.kind == b.kind && a.actions == b.actions && a.play == b.play &&
         a.payoff.reward == b.payoff.reward &&
         a.payoff.sucker == b.payoff.sucker &&
         a.payoff.temptation == b.payoff.temptation &&
         a.payoff.punishment == b.payoff.punishment &&
         a.row_payoff == b.row_payoff && a.col_payoff == b.col_payoff &&
         a.rounds == b.rounds && a.noise == b.noise && a.pgg_r == b.pgg_r &&
         a.pgg_cost == b.pgg_cost && a.pgg_k == b.pgg_k;
}

}  // namespace egt::game
