#include "util/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/check.h"

namespace mmr {

Flags Flags::parse(int argc, const char* const* argv, bool allow_unknown) {
  (void)allow_unknown;
  Flags flags;
  if (argc > 0) flags.program_name_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      name = arg;
      value = argv[++i];
    } else {
      name = arg;
      value = "true";  // bare boolean flag
    }
    flags.values_[name] = value;
    flags.occurrences_.emplace_back(std::move(name), std::move(value));
  }
  return flags;
}

Flags& Flags::describe(const std::string& name, const std::string& help) {
  descriptions_.emplace_back(name, help);
  return *this;
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::optional<std::string> Flags::raw(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& default_value) const {
  return raw(name).value_or(default_value);
}

std::vector<std::string> Flags::get_string_list(
    const std::string& name) const {
  std::vector<std::string> out;
  for (const auto& [key, value] : occurrences_) {
    if (key == name) out.push_back(value);
  }
  return out;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t default_value) const {
  const auto v = raw(name);
  if (!v) return default_value;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  MMR_CHECK_MSG(!v->empty() && end && *end == '\0',
                "flag --" << name << " is not an integer: '" << *v << "'");
  MMR_CHECK_MSG(errno != ERANGE,
                "flag --" << name << " is out of range: " << *v);
  return parsed;
}

std::uint64_t Flags::get_count(const std::string& name,
                               std::uint64_t default_value,
                               std::uint64_t max) const {
  if (!has(name)) return default_value;
  const std::int64_t v = get_int(name, 0);
  MMR_CHECK_MSG(v >= 0 && static_cast<std::uint64_t>(v) <= max,
                "flag --" << name << " must be in [0, " << max << "], got "
                          << v);
  return static_cast<std::uint64_t>(v);
}

double Flags::get_double(const std::string& name, double default_value) const {
  const auto v = raw(name);
  if (!v) return default_value;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v->c_str(), &end);
  MMR_CHECK_MSG(!v->empty() && end && *end == '\0',
                "flag --" << name << " is not a number: '" << *v << "'");
  MMR_CHECK_MSG(!(errno == ERANGE && std::isinf(parsed)),
                "flag --" << name << " is out of range: " << *v);
  return parsed;
}

bool Flags::get_bool(const std::string& name, bool default_value) const {
  const auto v = raw(name);
  if (!v) return default_value;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  MMR_CHECK_MSG(false, "flag --" << name << " is not a boolean: " << *v);
  return default_value;
}

std::string Flags::help() const {
  std::ostringstream os;
  os << "Usage: " << program_name_ << " [--flag=value ...]\n";
  for (const auto& [name, text] : descriptions_) {
    os << "  --" << name << "\n      " << text << "\n";
  }
  return os.str();
}

}  // namespace mmr
