#include "common/units.hpp"

#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace ota {
namespace {

struct Prefix {
  char symbol;     // '\0' means "no prefix"
  double value;
};

// Ordered from smallest to largest so format_si can scan for the right bucket.
constexpr std::array<Prefix, 13> kPrefixes{{
    {'a', 1e-18},
    {'f', 1e-15},
    {'p', 1e-12},
    {'n', 1e-9},
    {'u', 1e-6},
    {'m', 1e-3},
    {'\0', 1.0},
    {'k', 1e3},
    {'M', 1e6},
    {'G', 1e9},
    {'T', 1e12},
    {'P', 1e15},
    {'E', 1e18},
}};

// Formats `mantissa` with `sig_digits` significant digits, trimming trailing
// zeros and any dangling decimal point ("2.50" -> "2.5", "3.00" -> "3").
std::string format_mantissa(double mantissa, int sig_digits) {
  if (sig_digits < 1) sig_digits = 1;
  // %.*g would switch to scientific for large exponents; the mantissa here is
  // always in [1, 1000) so fixed formatting with a computed precision works.
  double abs_m = std::fabs(mantissa);
  int int_digits = abs_m >= 100.0 ? 3 : abs_m >= 10.0 ? 2 : 1;
  // Round integer digits beyond the significance budget away (217 @ 2 -> 220)
  // so low-sig-digit decoder text really carries only sig_digits of entropy.
  if (int_digits > sig_digits) {
    const double scale = std::pow(10.0, int_digits - sig_digits);
    mantissa = std::round(mantissa / scale) * scale;
    abs_m = std::fabs(mantissa);
    int_digits = abs_m >= 100.0 ? 3 : abs_m >= 10.0 ? 2 : 1;
  }
  int frac_digits = sig_digits - int_digits;
  if (frac_digits < 0) frac_digits = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", frac_digits, mantissa);
  std::string s{buf};
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

}  // namespace

std::optional<double> si_prefix_value(char c) {
  for (const auto& p : kPrefixes) {
    if (p.symbol == c && p.symbol != '\0') return p.value;
  }
  return std::nullopt;
}

std::string format_si(double value, std::string_view unit, int sig_digits) {
  // Build with append rather than `const char* + std::string&&`: the latter
  // trips a GCC 12 -Wrestrict false positive (PR 105651) under -Werror.
  if (value == 0.0 || std::fabs(value) < 1e-30) {
    std::string out{"0"};
    out.append(unit);
    return out;
  }
  if (!std::isfinite(value)) {
    std::string out{value > 0 ? "inf" : std::isnan(value) ? "nan" : "-inf"};
    out.append(unit);
    return out;
  }
  const bool negative = value < 0;
  double mag = std::fabs(value);

  // Pick the largest prefix whose value does not exceed the magnitude, so the
  // mantissa lands in [1, 1000).  Guard against rounding pushing the mantissa
  // to exactly 1000 (e.g. 999.96 with 3 sig digits).
  for (int pass = 0; pass < 2; ++pass) {
    const Prefix* chosen = &kPrefixes.front();
    for (const auto& p : kPrefixes) {
      if (mag >= p.value * (1.0 - 1e-12)) chosen = &p;
    }
    if (mag < kPrefixes.front().value * 1e-3) {
      break;  // far below atto: fall through to scientific
    }
    // Sub-atto values keep the smallest prefix with a fractional mantissa
    // (e.g. 0.7aF), matching the paper's sequence text.
    double mantissa = mag / chosen->value;
    std::string m = format_mantissa(mantissa, sig_digits);
    if (m == "1000") {
      // Rounded up into the next bucket; bump the magnitude and retry once.
      mag = chosen->value * 1000.0;
      continue;
    }
    std::string out = negative ? "-" : "";
    out += m;
    if (chosen->symbol != '\0') out.push_back(chosen->symbol);
    out += unit;
    return out;
  }

  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*e", sig_digits - 1, value);
  return std::string{buf} + std::string{unit};
}

std::string format_plain(double value, int sig_digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", sig_digits, value);
  return std::string{buf};
}

std::optional<double> parse_si(std::string_view text, std::string_view unit) {
  if (text.empty()) return std::nullopt;

  // Strip the expected unit suffix if one was requested.
  if (!unit.empty()) {
    if (text.size() <= unit.size() ||
        text.substr(text.size() - unit.size()) != unit) {
      return std::nullopt;
    }
    text.remove_suffix(unit.size());
  }

  // Number part: leading sign, digits, optional fraction, optional exponent.
  size_t i = 0;
  if (text[i] == '+' || text[i] == '-') ++i;
  size_t digits_begin = i;
  while (i < text.size() && (std::isdigit(static_cast<unsigned char>(text[i])) ||
                             text[i] == '.')) {
    ++i;
  }
  if (i == digits_begin) return std::nullopt;
  // Optional exponent (rare in sequence text but accepted).
  if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
    size_t j = i + 1;
    if (j < text.size() && (text[j] == '+' || text[j] == '-')) ++j;
    size_t exp_begin = j;
    while (j < text.size() && std::isdigit(static_cast<unsigned char>(text[j]))) ++j;
    if (j > exp_begin) i = j;
  }

  const std::string num{text.substr(0, i)};
  char* end = nullptr;
  double value = std::strtod(num.c_str(), &end);
  if (end != num.c_str() + num.size()) return std::nullopt;

  std::string_view rest = text.substr(i);
  double mult = 1.0;
  if (!rest.empty()) {
    // A single prefix character, or — when no explicit unit was requested —
    // a prefix followed by a free-form unit (e.g. "2.5mS" with unit="").
    if (rest.size() != 1 && !unit.empty()) return std::nullopt;
    auto p = si_prefix_value(rest.front());
    if (!p) return std::nullopt;
    mult = *p;
  }
  // strtod overflows to inf ("1e999"), and so can the prefix ("1e308G").
  const double result = value * mult;
  if (!std::isfinite(result)) return std::nullopt;
  return result;
}

}  // namespace ota
