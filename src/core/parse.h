// Strict text-to-number parses shared by the command-line tools and the
// instance and DAG file readers.  Standard library only, so any layer can
// use them without pulling in the scheduler API.
#pragma once

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>

namespace pjsched::core {

/// Parses `text` as a decimal T: digits only, the whole string, within T's
/// range.  Throws std::invalid_argument otherwise — unlike std::stoul, a
/// sign, trailing characters or an out-of-range value never wrap.  The one
/// integer parse behind scheduler names, the tools' integer flags and the
/// counts, ids and work of instance and DAG files.
template <typename T>
T parse_unsigned(const std::string& text) {
  static_assert(std::is_unsigned_v<T>);
  T value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end)
    throw std::invalid_argument("bad unsigned integer '" + text + "'");
  return value;
}

/// Parses `text` as a finite decimal number: the whole string, no inf or
/// nan.  Throws std::invalid_argument otherwise — unlike std::stod,
/// trailing characters never pass.  The floating counterpart of
/// parse_unsigned, behind the tools' floating flags and the arrivals and
/// weights of instance files.
inline double parse_finite(const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value))
    throw std::invalid_argument("bad finite number '" + text + "'");
  return value;
}

}  // namespace pjsched::core
