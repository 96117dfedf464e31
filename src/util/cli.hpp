// Tiny declarative command-line parser for benches and examples.
//
//   egt::util::Cli cli("fig2_wsls_validation", "WSLS emergence validation");
//   auto ssets = cli.opt<int>("ssets", 256, "number of strategy sets");
//   auto gens  = cli.opt<double>("generations", 1e6, "generations to run");
//   cli.parse(argc, argv);        // exits on --help or bad input
//   run(*ssets, *gens);
//
// Accepted forms: --name value, --name=value, and --flag for booleans.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace egt::util {

class Cli {
 public:
  Cli(std::string program, std::string description);

  /// Register an option; the returned shared_ptr holds the parsed value.
  template <class T>
  std::shared_ptr<T> opt(const std::string& name, T default_value,
                         const std::string& help) {
    auto value = std::make_shared<T>(default_value);
    add_option(name, help, to_display(default_value),
               [value](const std::string& text) { *value = parse_as<T>(text); },
               /*is_flag=*/false);
    return value;
  }

  /// Register a boolean flag (present => true).
  std::shared_ptr<bool> flag(const std::string& name, const std::string& help);

  /// Parse argv. On --help prints usage and exits(0); on error prints a
  /// message and exits(2).
  void parse(int argc, char** argv);

  std::string usage() const;

  /// Whether parse() saw `--name` on the command line (an option given
  /// its default value explicitly counts as given).
  bool given(const std::string& name) const;

 private:
  struct Option {
    std::string name;
    std::string help;
    std::string default_display;
    std::function<void(const std::string&)> apply;
    bool is_flag;
    bool given = false;
  };

  void add_option(const std::string& name, const std::string& help,
                  std::string default_display,
                  std::function<void(const std::string&)> apply, bool is_flag);

  template <class T>
  static T parse_as(const std::string& text);

  template <class T>
  static std::string to_display(const T& v);

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
};

template <>
std::int64_t Cli::parse_as<std::int64_t>(const std::string& text);
template <>
int Cli::parse_as<int>(const std::string& text);
template <>
double Cli::parse_as<double>(const std::string& text);
template <>
std::string Cli::parse_as<std::string>(const std::string& text);
template <>
std::uint64_t Cli::parse_as<std::uint64_t>(const std::string& text);

template <>
std::string Cli::to_display<std::int64_t>(const std::int64_t& v);
template <>
std::string Cli::to_display<int>(const int& v);
template <>
std::string Cli::to_display<double>(const double& v);
template <>
std::string Cli::to_display<std::string>(const std::string& v);
template <>
std::string Cli::to_display<std::uint64_t>(const std::uint64_t& v);

}  // namespace egt::util
