#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace egt::util {

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

std::shared_ptr<bool> Cli::flag(const std::string& name,
                                const std::string& help) {
  auto value = std::make_shared<bool>(false);
  add_option(name, help, "false",
             [value](const std::string&) { *value = true; },
             /*is_flag=*/true);
  return value;
}

void Cli::add_option(const std::string& name, const std::string& help,
                     std::string default_display,
                     std::function<void(const std::string&)> apply,
                     bool is_flag) {
  options_.push_back(
      {name, help, std::move(default_display), std::move(apply), is_flag});
}

void Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n%s",
                   program_.c_str(), arg.c_str(), usage().c_str());
      std::exit(2);
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    Option* opt = nullptr;
    for (auto& o : options_) {
      if (o.name == name) {
        opt = &o;
        break;
      }
    }
    if (opt == nullptr) {
      std::fprintf(stderr, "%s: unknown option '--%s'\n%s", program_.c_str(),
                   name.c_str(), usage().c_str());
      std::exit(2);
    }
    if (!opt->is_flag && !has_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: option '--%s' requires a value\n",
                     program_.c_str(), name.c_str());
        std::exit(2);
      }
      value = argv[++i];
      has_value = true;
    }
    try {
      opt->apply(value);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: bad value for '--%s': %s\n", program_.c_str(),
                   name.c_str(), e.what());
      std::exit(2);
    }
    opt->given = true;
  }
}

bool Cli::given(const std::string& name) const {
  for (const auto& o : options_) {
    if (o.name == name) return o.given;
  }
  return false;
}

std::string Cli::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& o : options_) {
    os << "  --" << o.name;
    if (!o.is_flag) os << " <value>";
    os << "  " << o.help << " (default: " << o.default_display << ")\n";
  }
  os << "  --help  show this message\n";
  return os.str();
}

namespace {
long long parse_ll(const std::string& text) {
  std::size_t pos = 0;
  // Accept scientific notation for integer options ("1e6").
  const double d = std::stod(text, &pos);
  if (pos != text.size()) throw std::invalid_argument("trailing characters");
  const auto ll = static_cast<long long>(d);
  if (static_cast<double>(ll) != d) {
    throw std::invalid_argument("not an integer");
  }
  return ll;
}
}  // namespace

template <>
std::int64_t Cli::parse_as<std::int64_t>(const std::string& text) {
  return static_cast<std::int64_t>(parse_ll(text));
}
template <>
int Cli::parse_as<int>(const std::string& text) {
  return static_cast<int>(parse_ll(text));
}
template <>
std::uint64_t Cli::parse_as<std::uint64_t>(const std::string& text) {
  return static_cast<std::uint64_t>(parse_ll(text));
}
template <>
double Cli::parse_as<double>(const std::string& text) {
  std::size_t pos = 0;
  const double d = std::stod(text, &pos);
  if (pos != text.size()) throw std::invalid_argument("trailing characters");
  return d;
}
template <>
std::string Cli::parse_as<std::string>(const std::string& text) {
  return text;
}

template <>
std::string Cli::to_display<std::int64_t>(const std::int64_t& v) {
  return std::to_string(v);
}
template <>
std::string Cli::to_display<int>(const int& v) {
  return std::to_string(v);
}
template <>
std::string Cli::to_display<std::uint64_t>(const std::uint64_t& v) {
  return std::to_string(v);
}
template <>
std::string Cli::to_display<double>(const double& v) {
  return fmt_num(v);
}
template <>
std::string Cli::to_display<std::string>(const std::string& v) {
  return v;
}

}  // namespace egt::util
