// Whole-string number parsing, shared by the command-line flags and the
// repro-artifact loader: text is a number only if std::from_chars consumes
// it from its first character to its last and the value fits T.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace cht {

template <class T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  return value;
}

}  // namespace cht
