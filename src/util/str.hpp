// Small string helpers shared by the PLA parser, DIMACS I/O and reporting.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace janus {

/// Parse a strictly-decimal count in [min, max]: digits only (no sign, no
/// trailing junk, no overflow). Shared by the PLA and solution-cache parsers
/// so malformed headers fail uniformly. nullopt on any violation.
[[nodiscard]] std::optional<int> parse_count(std::string_view token, int min,
                                             int max);

/// Signed variant of parse_count: an optional leading '-' followed by digits
/// only, range-checked against [min, max]. Replaces std::stoi/std::atoi at
/// every call site (the project linter, tools/check_lint.py, forbids those:
/// atoi returns 0 on garbage, stoi throws and accepts trailing junk).
/// nullopt on any violation.
[[nodiscard]] std::optional<int> parse_int(std::string_view token, int min,
                                           int max);

/// Parse a duration in seconds: a finite decimal (optional '-', digits, an
/// optional fraction and exponent) with no leading or trailing junk, in
/// [min, max]. Replaces std::atof at every flag that takes seconds (the
/// project linter forbids atof: it reads "abc" as 0 and "1O" as 1).
/// nullopt on any violation, including nan and inf.
[[nodiscard]] std::optional<double> parse_seconds(std::string_view token,
                                                  double min, double max);

/// Split `text` on any of the whitespace characters, dropping empty tokens.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view text);

/// Strip leading/trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// True when `text` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// Fixed-width left-aligned / right-aligned cells for table printing.
[[nodiscard]] std::string pad_left(const std::string& s, std::size_t width);
[[nodiscard]] std::string pad_right(const std::string& s, std::size_t width);

/// Format a double with `digits` decimals (locale-independent).
[[nodiscard]] std::string format_fixed(double value, int digits);

}  // namespace janus
