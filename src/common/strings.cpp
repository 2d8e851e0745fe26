#include "common/strings.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "common/time.hpp"

namespace hetsched {

std::string format_bytes(double bytes) {
  static constexpr std::array<const char*, 5> kUnits = {"B", "KB", "MB", "GB",
                                                        "TB"};
  double value = bytes;
  std::size_t unit = 0;
  while (std::abs(value) >= 1000.0 && unit + 1 < kUnits.size()) {
    value /= 1000.0;
    ++unit;
  }
  char buf[64];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", value, kUnits[unit]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", value, kUnits[unit]);
  }
  return buf;
}

std::string format_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string format_percent(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& separator) {
  std::string result;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) result += separator;
    result += parts[i];
  }
  return result;
}

std::string format_time(SimTime t) {
  char buf[64];
  const double ns = static_cast<double>(t);
  if (t < 10 * kMicrosecond) {
    std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
  } else if (t < 10 * kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
  } else if (t < 10 * kSecond) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", ns / 1e9);
  }
  return buf;
}

std::uint64_t parse_bounded_uint(const std::string& text, std::uint64_t max,
                                 const std::string& what) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  // from_chars takes no sign or whitespace, so "-1" and " 1" fail here.
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error == std::errc::invalid_argument || stop != end)
    throw InvalidArgument(what + " expects a non-negative integer, got '" +
                          text + "'");
  if (error == std::errc::result_out_of_range || value > max)
    throw InvalidArgument(what + " must be at most " + std::to_string(max) +
                          ", got " + text);
  return value;
}

}  // namespace hetsched
