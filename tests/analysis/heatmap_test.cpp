#include "analysis/heatmap.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <sstream>

#include "game/named.hpp"

namespace egt::analysis {
namespace {

class HeatmapTest : public ::testing::Test {
 protected:
  // One file per test and process: ctest -j runs every TEST as its own
  // process, so a shared name would collide.
  std::string path_ =
      ::testing::TempDir() + "egt_heatmap_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      "_" + std::to_string(::getpid()) + ".ppm";
  void TearDown() override { std::remove(path_.c_str()); }

  std::string slurp() {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
};

TEST_F(HeatmapTest, WritesValidPpmHeaderAndSize) {
  HeatmapOptions opt;
  opt.cell_width = 2;
  opt.cell_height = 3;
  write_heatmap_ppm(path_, {{0.0, 1.0}, {0.5, 0.5}}, opt);
  const std::string data = slurp();
  EXPECT_EQ(data.rfind("P6\n4 6\n255\n", 0), 0u);
  // 4x6 pixels, 3 bytes each, after the 11-byte header.
  EXPECT_EQ(data.size(), 11u + 4u * 6u * 3u);
}

TEST_F(HeatmapTest, CooperateAndDefectGetDistinctColours) {
  write_heatmap_ppm(path_, {{0.0}, {1.0}},
                    {.cell_width = 1, .cell_height = 1, .row_order = {}});
  const std::string data = slurp();
  const auto header_end = data.find("255\n") + 4;
  // Defect pixel (blue-ish): blue channel dominates; cooperate (yellow):
  // red and green dominate.
  const unsigned char d_r = data[header_end + 0], d_b = data[header_end + 2];
  const unsigned char c_r = data[header_end + 3], c_b = data[header_end + 5];
  EXPECT_GT(d_b, d_r);
  EXPECT_GT(c_r, c_b);
}

TEST_F(HeatmapTest, RowOrderPermutesRows) {
  HeatmapOptions opt;
  opt.cell_width = 1;
  opt.cell_height = 1;
  opt.row_order = {1, 0};
  write_heatmap_ppm(path_, {{0.0}, {1.0}}, opt);
  const std::string swapped = slurp();
  opt.row_order = {0, 1};
  write_heatmap_ppm(path_, {{0.0}, {1.0}}, opt);
  const std::string natural = slurp();
  EXPECT_NE(swapped, natural);
}

TEST_F(HeatmapTest, PopulationConvenienceWrapper) {
  std::vector<game::Strategy> ss(4, game::Strategy(game::named::win_stay_lose_shift(1)));
  const pop::Population p(std::move(ss));
  write_population_heatmap(path_, p);
  EXPECT_FALSE(slurp().empty());
}

TEST_F(HeatmapTest, RejectsRaggedInput) {
  EXPECT_THROW(write_heatmap_ppm(path_, {{0.0, 1.0}, {0.5}}, {}),
               std::invalid_argument);
  EXPECT_THROW(write_heatmap_ppm(path_, {}, {}), std::invalid_argument);
}

TEST_F(HeatmapTest, RejectsBadRowOrder) {
  HeatmapOptions opt;
  opt.row_order = {0};  // wrong length for 2 rows
  EXPECT_THROW(write_heatmap_ppm(path_, {{0.0}, {1.0}}, opt),
               std::invalid_argument);
}

TEST(AsciiHeatmap, UsesFourLevels) {
  const std::string art =
      ascii_heatmap({{1.0, 0.6, 0.3, 0.0}}, 10);
  EXPECT_EQ(art, "CcdD\n");
}

TEST(AsciiHeatmap, TruncatesLongOutputs) {
  const std::vector<std::vector<double>> rows(100, std::vector<double>{1.0});
  const std::string art = ascii_heatmap(rows, 5);
  EXPECT_NE(art.find("..."), std::string::npos);
}

}  // namespace
}  // namespace egt::analysis
