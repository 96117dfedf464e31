// The row-carrying ft messages: FIT and DECIDE round-trip their payoff
// row, and a row of any length but 0 or ssets, a truncated row or
// trailing bytes are rejected by the decoder, so no malformed row can
// reach a fitness block.
#include <gtest/gtest.h>

#include <vector>

#include "core/wire.hpp"
#include "ft/protocol.hpp"

namespace egt::ft {
namespace {

constexpr std::uint32_t kSSets = 6;

std::vector<double> row_of(std::size_t n) {
  std::vector<double> row(n);
  for (std::size_t j = 0; j < n; ++j) row[j] = 0.5 * static_cast<double>(j) - 1.0;
  return row;
}

core::GenerationDecision decision() {
  core::GenerationDecision d;
  d.gen = 41;
  d.adopted = true;
  return d;
}

TEST(FtProtocol, FitRoundTripsWithAndWithoutRow) {
  const FitReply with = decode_fit(encode_fit(7, 2.5, row_of(kSSets)), kSSets);
  EXPECT_EQ(with.req, 7u);
  EXPECT_EQ(with.fitness, 2.5);
  EXPECT_EQ(with.row, row_of(kSSets));
  const FitReply without = decode_fit(encode_fit(8, -1.0, {}), kSSets);
  EXPECT_EQ(without.req, 8u);
  EXPECT_TRUE(without.row.empty());
}

TEST(FtProtocol, DecideRoundTripsWithAndWithoutRow) {
  const DecideMsg with =
      decode_decide(encode_decide(decision(), row_of(kSSets)), kSSets);
  EXPECT_EQ(with.decision.gen, 41u);
  EXPECT_TRUE(with.decision.adopted);
  EXPECT_EQ(with.row, row_of(kSSets));
  const DecideMsg without = decode_decide(encode_decide(decision(), {}), kSSets);
  EXPECT_TRUE(without.row.empty());
}

TEST(FtProtocol, FitRejectsShortLongAndTrailingRows) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{kSSets - 1},
                              std::size_t{kSSets + 1}}) {
    EXPECT_THROW((void)decode_fit(encode_fit(1, 0.0, row_of(n)), kSSets),
                 core::CheckpointError)
        << n << " entries";
  }
  auto cut = encode_fit(1, 0.0, row_of(kSSets));
  cut.pop_back();
  EXPECT_THROW((void)decode_fit(cut, kSSets), core::CheckpointError);
  auto trailing = encode_fit(1, 0.0, row_of(kSSets));
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)decode_fit(trailing, kSSets), core::CheckpointError);
  auto after_empty = encode_fit(1, 0.0, {});
  after_empty.push_back(std::byte{0});
  EXPECT_THROW((void)decode_fit(after_empty, kSSets), core::CheckpointError);
}

TEST(FtProtocol, DecideRejectsShortLongAndTrailingRows) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{kSSets - 1},
                              std::size_t{kSSets + 1}}) {
    EXPECT_THROW((void)decode_decide(
                     encode_decide(decision(), row_of(n)),
                     kSSets),
                 core::CheckpointError)
        << n << " entries";
  }
  auto cut = encode_decide(decision(), row_of(kSSets));
  cut.pop_back();
  EXPECT_THROW((void)decode_decide(cut, kSSets), core::CheckpointError);
  auto trailing = encode_decide(decision(), row_of(kSSets));
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)decode_decide(trailing, kSSets), core::CheckpointError);
  // A row's length word alone, with no doubles behind it.
  auto bare = encode_decide(decision(), {});
  bare.resize(bare.size() - sizeof(std::uint32_t));
  core::wire::Writer len;
  len.u32(kSSets);
  const auto word = len.take();
  bare.insert(bare.end(), word.begin(), word.end());
  EXPECT_THROW((void)decode_decide(bare, kSSets), core::CheckpointError);
}

}  // namespace
}  // namespace egt::ft
