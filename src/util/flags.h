// Minimal CLI flag parser for bench harnesses and examples.
//
// Supports --name=value and --name value forms, typed lookups with defaults,
// and generates a --help listing from registered flags.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mmr {

class Flags {
 public:
  /// Parses argv; unknown flags are an error unless allow_unknown is set.
  /// Positional (non --) arguments are collected in positional().
  static Flags parse(int argc, const char* const* argv,
                     bool allow_unknown = false);

  /// Registers a flag for --help output and value validation.
  Flags& describe(const std::string& name, const std::string& help);

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name,
                         const std::string& default_value) const;
  /// Every occurrence of a repeated flag, in command-line order (the typed
  /// getters above see only the last one). Empty when the flag is absent.
  std::vector<std::string> get_string_list(const std::string& name) const;
  /// A decimal integer. Throws CheckError on an empty value, trailing
  /// characters or a value outside the int64 range.
  std::int64_t get_int(const std::string& name,
                       std::int64_t default_value) const;
  /// get_int for a count or size that must lie in [0, max]; anything else
  /// (negative, too large, not an integer) throws CheckError naming the
  /// flag, before the caller can cast or allocate with it. The default max
  /// fits the 32-bit counts most flags fill.
  std::uint64_t get_count(
      const std::string& name, std::uint64_t default_value,
      std::uint64_t max = std::numeric_limits<std::uint32_t>::max()) const;
  double get_double(const std::string& name, double default_value) const;
  bool get_bool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program_name() const { return program_name_; }

  /// True if --help was passed; callers should print help() and exit 0.
  bool help_requested() const { return has("help"); }
  std::string help() const;

 private:
  std::optional<std::string> raw(const std::string& name) const;

  std::string program_name_;
  std::map<std::string, std::string> values_;  ///< last occurrence wins
  std::vector<std::pair<std::string, std::string>> occurrences_;  ///< all, ordered
  std::vector<std::string> positional_;
  std::vector<std::pair<std::string, std::string>> descriptions_;
};

}  // namespace mmr
