#include "common/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "common/ensure.hpp"

namespace flashabft {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "";  // boolean switch
    }
  }
}

const std::string* CliArgs::find(const std::string& name) const {
  read_.insert(name);
  const auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

bool CliArgs::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const std::int64_t parsed = std::strtoll(value->c_str(), &end, 10);
  FLASHABFT_ENSURE_MSG(!value->empty() && *end == '\0' && errno != ERANGE,
                       "flag --" << name << " expects an integer, got '"
                                 << *value << "'");
  return parsed;
}

std::size_t CliArgs::get_size(const std::string& name,
                              std::size_t fallback) const {
  if (!has(name)) return fallback;
  const std::int64_t value = get_int(name, 0);
  FLASHABFT_ENSURE_MSG(value >= 0, "flag --" << name
                                             << " expects a non-negative "
                                                "value, got " << value);
  return std::size_t(value);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value->c_str(), &end);
  FLASHABFT_ENSURE_MSG(!value->empty() && *end == '\0' && errno != ERANGE,
                       "flag --" << name << " expects a number, got '"
                                 << *value << "'");
  return parsed;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  if (value->empty() || *value == "true" || *value == "1") return true;
  if (*value == "false" || *value == "0") return false;
  throw EnsureError("flag --" + name + " expects a boolean, got '" + *value +
                    "'");
}

void CliArgs::reject_unknown() const {
  std::string unknown;
  for (const auto& [name, value] : flags_) {
    if (read_.count(name) == 0) unknown += " --" + name;
  }
  if (!unknown.empty()) throw EnsureError("unknown flag(s):" + unknown);
}

bool all_flags_known(const CliArgs& args) {
  try {
    args.reject_unknown();
    return true;
  } catch (const EnsureError& e) {
    std::cerr << e.what() << '\n';
    return false;
  }
}

}  // namespace flashabft
