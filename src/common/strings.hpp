#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// String formatting and parsing helpers for reports, diagnostics and
/// command-line input.
namespace hetsched {

/// "1.50 GB", "64.0 MB", "512 B" — decimal units, like the paper's figures.
std::string format_bytes(double bytes);

/// Fixed-precision double ("3.14"), trailing zeros kept for column alignment.
std::string format_fixed(double value, int decimals);

/// "41.2%" from a 0..1 fraction.
std::string format_percent(double fraction, int decimals = 1);

/// Joins parts with a separator.
std::string join(const std::vector<std::string>& parts,
                 const std::string& separator);

/// Parses all of `text` as a base-10 unsigned integer no larger than `max`.
/// Throws InvalidArgument naming `what` on anything else: an empty string,
/// a sign, a stray character, or a value past `max`.
std::uint64_t parse_bounded_uint(const std::string& text, std::uint64_t max,
                                 const std::string& what);

}  // namespace hetsched
