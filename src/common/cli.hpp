// Minimal command-line flag parsing for bench/example binaries.
//
// Supports `--name=value` and `--name value` forms plus boolean switches.
// The bench harnesses must run with no arguments (defaults reproduce the
// paper's setup), so parsing failures throw rather than prompting: a value
// that does not parse whole, and (via reject_unknown) a flag the binary
// never read.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace flashabft {

/// Parsed command line: flag map plus positional arguments.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True if `--name` was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// get_int constrained to non-negative values (sizes, counts, thread and
  /// batch knobs); a negative value throws.
  [[nodiscard]] std::size_t get_size(const std::string& name,
                                     std::size_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Throws EnsureError naming every flag that no has()/get_*() call has
  /// read, so a misspelt or retired flag fails instead of silently running
  /// the defaults. Call once every flag the binary takes has been read.
  void reject_unknown() const;

 private:
  /// The value of `--name`, or nullptr when absent; marks `name` read.
  [[nodiscard]] const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

/// reject_unknown() for a binary's main: prints the error to stderr and
/// returns false, so main exits with a usage error instead of aborting.
[[nodiscard]] bool all_flags_known(const CliArgs& args);

}  // namespace flashabft
