#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace egt::util {
namespace {

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> out;
  for (auto& a : args) out.push_back(a.data());
  return out;
}

TEST(Cli, DefaultsSurviveEmptyParse) {
  Cli cli("prog", "test");
  auto x = cli.opt<int>("x", 5, "an int");
  auto s = cli.opt<std::string>("s", "hello", "a string");
  std::vector<std::string> args{"prog"};
  auto argv = argv_of(args);
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(*x, 5);
  EXPECT_EQ(*s, "hello");
}

TEST(Cli, ParsesSeparateAndEqualsForms) {
  Cli cli("prog", "test");
  auto x = cli.opt<int>("x", 0, "an int");
  auto y = cli.opt<double>("y", 0.0, "a double");
  std::vector<std::string> args{"prog", "--x", "7", "--y=2.5"};
  auto argv = argv_of(args);
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(*x, 7);
  EXPECT_DOUBLE_EQ(*y, 2.5);
}

TEST(Cli, ScientificNotationForIntegerOptions) {
  Cli cli("prog", "test");
  auto g = cli.opt<std::int64_t>("gens", 0, "generations");
  std::vector<std::string> args{"prog", "--gens", "1e6"};
  auto argv = argv_of(args);
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(*g, 1000000);
}

TEST(Cli, FlagsDefaultFalseAndSet) {
  Cli cli("prog", "test");
  auto f = cli.flag("fast", "go fast");
  {
    std::vector<std::string> args{"prog"};
    auto argv = argv_of(args);
    cli.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_FALSE(*f);
  }
  {
    std::vector<std::string> args{"prog", "--fast"};
    auto argv = argv_of(args);
    cli.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(*f);
  }
}

TEST(Cli, GivenTellsExplicitOptionsFromDefaults) {
  Cli cli("prog", "test");
  auto keep = cli.opt<int>("keep", 3, "an int");
  (void)cli.opt<int>("other", 1, "an int");
  (void)cli.flag("f", "a flag");
  std::vector<std::string> args{"prog", "--keep=3", "--f"};
  auto argv = argv_of(args);
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(*keep, 3);
  EXPECT_TRUE(cli.given("keep"));  // the default, but spelled out
  EXPECT_FALSE(cli.given("other"));
  EXPECT_TRUE(cli.given("f"));
  EXPECT_FALSE(cli.given("no-such-option"));
}

TEST(Cli, UsageMentionsOptionsAndDefaults) {
  Cli cli("prog", "does things");
  (void)cli.opt<int>("count", 3, "how many");
  const std::string u = cli.usage();
  EXPECT_NE(u.find("--count"), std::string::npos);
  EXPECT_NE(u.find("how many"), std::string::npos);
  EXPECT_NE(u.find("3"), std::string::npos);
}

TEST(CliDeath, UnknownOptionExits) {
  Cli cli("prog", "test");
  std::vector<std::string> args{"prog", "--nope", "1"};
  auto argv = argv_of(args);
  EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
              ::testing::ExitedWithCode(2), "unknown option");
}

TEST(CliDeath, BadValueExits) {
  Cli cli("prog", "test");
  (void)cli.opt<int>("x", 0, "an int");
  std::vector<std::string> args{"prog", "--x", "abc"};
  auto argv = argv_of(args);
  EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
              ::testing::ExitedWithCode(2), "bad value");
}

}  // namespace
}  // namespace egt::util
