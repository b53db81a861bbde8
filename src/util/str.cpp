#include "util/str.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace janus {

std::optional<int> parse_count(std::string_view token, int min, int max) {
  if (token.empty() || token.size() > 9) {  // 9 digits can never overflow int
    return std::nullopt;
  }
  long long value = 0;
  for (const char ch : token) {
    if (ch < '0' || ch > '9') {
      return std::nullopt;
    }
    value = value * 10 + (ch - '0');
  }
  if (value < min || value > max) {
    return std::nullopt;
  }
  return static_cast<int>(value);
}

std::optional<int> parse_int(std::string_view token, int min, int max) {
  if (!token.empty() && token.front() == '-') {
    const std::optional<int> magnitude =
        parse_count(token.substr(1), 0, 1'000'000'000);
    if (!magnitude.has_value() || -*magnitude < min || -*magnitude > max) {
      return std::nullopt;
    }
    return -*magnitude;
  }
  return parse_count(token, min, max);
}

std::optional<double> parse_seconds(std::string_view token, double min,
                                    double max) {
  if (token.empty()) {
    return std::nullopt;
  }
  double value = 0.0;
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    std::size_t j = i;
    while (j < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[j]))) {
      ++j;
    }
    if (j > i) {
      out.emplace_back(text.substr(i, j - i));
    }
    i = j;
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) {
    --e;
  }
  return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) {
    return s;
  }
  return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) {
    return s;
  }
  return s + std::string(width - s.size(), ' ');
}

std::string format_fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return std::string(buf);
}

}  // namespace janus
