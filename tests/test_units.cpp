// SI-unit formatting/parsing: the textual backbone of the sequence language.
#include "common/units.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

namespace ota {
namespace {

TEST(FormatSi, PaperExamples) {
  // Literals straight out of the paper's Fig. 4 and Section III-C.
  EXPECT_EQ(format_si(2.5e-3, "S"), "2.5mS");
  EXPECT_EQ(format_si(567e-6, "S"), "567uS");
  EXPECT_EQ(format_si(541e-18, "F"), "541aF");
  EXPECT_EQ(format_si(0.7e-18, "F"), "0.7aF");
  EXPECT_EQ(format_si(101e-6, "S"), "101uS");
  EXPECT_EQ(format_si(1.1e-15, "F"), "1.1fF");
  // The paper prints 900aF as "0.9fF"; we use the standard engineering
  // mantissa range [1, 1000) so the same value renders as "900aF".
  EXPECT_EQ(format_si(0.9e-15, "F"), "900aF");
}

TEST(FormatSi, Zero) {
  EXPECT_EQ(format_si(0.0, "F"), "0F");
  EXPECT_EQ(format_si(0.0, ""), "0");
}

TEST(FormatSi, Negative) {
  EXPECT_EQ(format_si(-1.5e-3, "S"), "-1.5mS");
}

TEST(FormatSi, NoPrefixRange) {
  EXPECT_EQ(format_si(1.0, "V"), "1V");
  EXPECT_EQ(format_si(999.0, "V"), "999V");
  EXPECT_EQ(format_si(1.2, "V"), "1.2V");
}

TEST(FormatSi, RoundingCarriesToNextPrefix) {
  // 999.96e-6 rounds to 1000uS at 3 significant digits -> must become 1mS.
  EXPECT_EQ(format_si(999.96e-6, "S"), "1mS");
}

TEST(FormatSi, SignificantDigits) {
  EXPECT_EQ(format_si(1.23456e-3, "S", 5), "1.2346mS");
  EXPECT_EQ(format_si(1.23456e-3, "S", 2), "1.2mS");
  EXPECT_EQ(format_si(123.456e-6, "S", 3), "123uS");
}

TEST(ParseSi, RoundTripBasic) {
  EXPECT_DOUBLE_EQ(*parse_si("2.5mS", "S"), 2.5e-3);
  EXPECT_DOUBLE_EQ(*parse_si("541aF", "F"), 541e-18);
  EXPECT_DOUBLE_EQ(*parse_si("-1.5mS", "S"), -1.5e-3);
  EXPECT_DOUBLE_EQ(*parse_si("0.7um", "m"), 0.7e-6);
  EXPECT_DOUBLE_EQ(*parse_si("50um", "m"), 50e-6);
  EXPECT_DOUBLE_EQ(*parse_si("1.2V", "V"), 1.2);
  EXPECT_DOUBLE_EQ(*parse_si("500fF", "F"), 500e-15);
}

TEST(ParseSi, NoUnit) {
  EXPECT_DOUBLE_EQ(*parse_si("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*parse_si("-42"), -42.0);
}

TEST(ParseSi, Rejections) {
  EXPECT_FALSE(parse_si("", "S").has_value());
  EXPECT_FALSE(parse_si("abc", "S").has_value());
  EXPECT_FALSE(parse_si("2.5mS", "F").has_value());  // wrong unit
  EXPECT_FALSE(parse_si("2.5qS", "S").has_value());  // unknown prefix
  EXPECT_FALSE(parse_si("mS", "S").has_value());     // no digits
}

TEST(ParseSi, RejectsNonFiniteValues) {
  EXPECT_FALSE(parse_si("1e999S", "S").has_value());   // strtod overflows
  EXPECT_FALSE(parse_si("-1e999S", "S").has_value());
  EXPECT_FALSE(parse_si("1e308GS", "S").has_value());  // prefix overflows
  EXPECT_FALSE(parse_si("1e308GS").has_value());       // free-form unit
  EXPECT_FALSE(parse_si("1e999").has_value());
  EXPECT_DOUBLE_EQ(*parse_si("1e299GS", "S"), 1e308);  // large but finite
}

TEST(ParseSi, ScientificNotationAccepted) {
  EXPECT_DOUBLE_EQ(*parse_si("1e-3S", "S"), 1e-3);
  EXPECT_DOUBLE_EQ(*parse_si("2.5e6V", "V"), 2.5e6);
}

class SiRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(SiRoundTrip, FormatThenParseIsClose) {
  const double value = GetParam();
  const std::string text = format_si(value, "S", 6);
  auto parsed = parse_si(text, "S");
  ASSERT_TRUE(parsed.has_value()) << text;
  EXPECT_NEAR(*parsed, value, std::fabs(value) * 1e-4) << text;
}

INSTANTIATE_TEST_SUITE_P(
    AcrossPrefixes, SiRoundTrip,
    ::testing::Values(1e-18, 4.2e-16, 3.3e-13, 1e-12, 2.5e-9, 8.8e-7, 1e-6,
                      3.14e-3, 0.5, 1.0, 42.0, 999.0, 1.5e3, 2.7e6, 9.9e9,
                      -2.5e-3, -541e-18, 7.7e13));

TEST(SiPrefix, KnownValues) {
  EXPECT_DOUBLE_EQ(*si_prefix_value('a'), 1e-18);
  EXPECT_DOUBLE_EQ(*si_prefix_value('f'), 1e-15);
  EXPECT_DOUBLE_EQ(*si_prefix_value('p'), 1e-12);
  EXPECT_DOUBLE_EQ(*si_prefix_value('n'), 1e-9);
  EXPECT_DOUBLE_EQ(*si_prefix_value('u'), 1e-6);
  EXPECT_DOUBLE_EQ(*si_prefix_value('m'), 1e-3);
  EXPECT_DOUBLE_EQ(*si_prefix_value('k'), 1e3);
  EXPECT_DOUBLE_EQ(*si_prefix_value('M'), 1e6);
  EXPECT_DOUBLE_EQ(*si_prefix_value('G'), 1e9);
  EXPECT_FALSE(si_prefix_value('q').has_value());
  EXPECT_FALSE(si_prefix_value('0').has_value());
}

TEST(FormatPlain, Basics) {
  EXPECT_EQ(format_plain(20.13), "20.13");
  EXPECT_EQ(format_plain(20.13, 3), "20.1");
  EXPECT_EQ(format_plain(-3.5), "-3.5");
}

}  // namespace
}  // namespace ota
