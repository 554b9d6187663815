// Command-line flag parsing shared by chtread_sim and chtread_fuzz. Flags
// take the form --name=value. A numeric value must be a number from its
// first character to its last and at least the flag's minimum, and a named
// value one the flag knows; anything else is a usage error that names the
// flag and exits with status 2.
#pragma once

#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.h"

namespace cht::cli {

// Sets `out` to the value of `arg` if `arg` is --name=value.
inline bool parse_flag(const std::string& arg, const std::string& name,
                       std::string& out) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  out = arg.substr(prefix.size());
  return true;
}

// The value of numeric flag --name, or exit 2 if it is malformed, out of
// T's range, or below `min`.
template <class T>
T number(const std::string& name, const std::string& value,
         T min = std::numeric_limits<T>::lowest()) {
  const std::optional<T> parsed = parse_number<T>(value);
  if (!parsed) {
    std::cerr << "--" << name << " takes a number (got '" << value << "')\n";
    std::exit(2);
  }
  if (*parsed < min) {
    std::cerr << "--" << name << " must be >= " << min << " (got " << *parsed
              << ")\n";
    std::exit(2);
  }
  return *parsed;
}

// Exits 2, naming the known values, unless `value` is one of them.
inline void require_one_of(const std::string& name, const std::string& value,
                           const std::vector<std::string>& known) {
  for (const auto& k : known) {
    if (value == k) return;
  }
  std::cerr << "unknown --" << name << "=" << value << " (known:";
  for (const auto& k : known) std::cerr << " " << k;
  if (known.empty()) std::cerr << " none";
  std::cerr << ")\n";
  std::exit(2);
}

}  // namespace cht::cli
