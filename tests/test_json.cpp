// JsonWriter's exact bytes. Every artifact's byte-identity rests on them:
// doubles must match an ostream at max_digits10 (C "%.17g"), strings must be
// `"` + json_escape(s) + `"`, and non-finite doubles must be null.
#include "util/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace mmr {
namespace {

/// The reference format: a fresh ostream at max_digits10, default floatfield.
std::string stream_format(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

std::string write_value(double v) {
  std::ostringstream os;
  JsonWriter(os).value(v);
  return os.str();
}

std::vector<double> special_doubles() {
  return {0.0,
          -0.0,
          0.1,
          -0.1,
          1.0,
          -1.0,
          2.0,
          3.0,
          10.0,
          100.0,
          1e15,
          1e16,
          1e17,
          123456789012345678.0,
          9007199254740992.0,
          9007199254740993.0,
          1.5,
          1.0 / 3.0,
          2.0 / 3.0,
          0.30000000000000004,
          1e-5,
          1e-4,
          1e21,
          1e22,
          1e300,
          -1e300,
          1e-300,
          std::numeric_limits<double>::max(),
          std::numeric_limits<double>::lowest(),
          std::numeric_limits<double>::min(),
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::min() / 3,
          std::numeric_limits<double>::epsilon()};
}

TEST(JsonWriterFormat, SpecialDoublesMatchStream) {
  for (double v : special_doubles()) {
    EXPECT_EQ(write_value(v), stream_format(v)) << std::hexfloat << v;
    EXPECT_EQ(json_number(v), stream_format(v)) << std::hexfloat << v;
  }
}

TEST(JsonWriterFormat, IntegralDoublesMatchStream) {
  for (std::int64_t i = -1000; i <= 1000; ++i) {
    const double v = static_cast<double>(i);
    ASSERT_EQ(write_value(v), stream_format(v)) << i;
  }
  for (int e = 0; e < 64; ++e) {
    const double v = std::ldexp(1.0, e);
    ASSERT_EQ(write_value(v), stream_format(v)) << e;
    ASSERT_EQ(write_value(v - 1), stream_format(v - 1)) << e;
  }
}

TEST(JsonWriterFormat, RandomBitPatternsMatchStream) {
  std::mt19937_64 rng(0x15015);
  int checked = 0;
  while (checked < 10000) {
    const double v = std::bit_cast<double>(rng());
    if (!std::isfinite(v)) continue;
    ASSERT_EQ(write_value(v), stream_format(v)) << std::hexfloat << v;
    ++checked;
  }
}

TEST(JsonWriterFormat, NonFiniteIsNull) {
  const double inf = std::numeric_limits<double>::infinity();
  for (double v : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    EXPECT_EQ(write_value(v), "null");
    EXPECT_EQ(json_number(v), "null");
  }
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array().value(std::nan("")).value(1.0).value(-inf).end_array();
  EXPECT_EQ(os.str(), "[null,1,null]");
}

TEST(JsonWriterFormat, IntegersMatchStream) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{42},
                         std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()}) {
    std::ostringstream os;
    JsonWriter(os).value(v);
    EXPECT_EQ(os.str(), std::to_string(v));
  }
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{7},
                          std::numeric_limits<std::uint64_t>::max()}) {
    std::ostringstream os;
    JsonWriter(os).value(v);
    EXPECT_EQ(os.str(), std::to_string(v));
  }
}

/// Strings that exercise every escape: quotes, backslashes, each control
/// byte, DEL and non-ASCII UTF-8.
std::vector<std::string> tricky_strings() {
  std::vector<std::string> out = {"",
                                  "plain",
                                  "\"",
                                  "\\",
                                  "a\"b\\c",
                                  "\\\"\\\"",
                                  "tab\there",
                                  "line\nbreak\r\n",
                                  "\x7f",
                                  "caf\xc3\xa9",
                                  "\xe2\x82\xac 5",
                                  "\xf0\x9f\x98\x80",
                                  "\xff\xfe raw high bytes",
                                  std::string("nul\0inside", 10),
                                  std::string(300, 'x') + "\"" +
                                      std::string(300, 'y')};
  std::string all_controls;
  for (int c = 0; c < 0x20; ++c) {
    out.push_back(std::string(1, static_cast<char>(c)));
    out.push_back("<" + std::string(1, static_cast<char>(c)) + ">");
    all_controls += static_cast<char>(c);
  }
  out.push_back(all_controls);
  return out;
}

TEST(JsonWriterFormat, StringsAreQuotedEscape) {
  for (const std::string& s : tricky_strings()) {
    const std::string expected = "\"" + json_escape(s) + "\"";
    std::ostringstream value_os;
    JsonWriter(value_os).value(s);
    EXPECT_EQ(value_os.str(), expected);

    std::ostringstream key_os;
    JsonWriter(key_os).begin_object().key(s).value(true).end_object();
    EXPECT_EQ(key_os.str(), "{" + expected + ":true}");

    // Escaped text parses back to the original bytes (no NUL-free
    // assumption, no re-encoding of non-ASCII).
    EXPECT_EQ(json_parse(value_os.str()).str_v, s);
  }
}

TEST(JsonWriterFormat, EscapeSequences) {
  EXPECT_EQ(json_escape("\"\\\b\f\n\r\t"), "\\\"\\\\\\b\\f\\n\\r\\t");
  EXPECT_EQ(json_escape(std::string("\0\x01\x1f", 3)),
            "\\u0000\\u0001\\u001f");
  EXPECT_EQ(json_escape("\x7f\xc3\xa9"), "\x7f\xc3\xa9");
}

TEST(JsonWriterFormat, LiteralsDoNotBindToBool) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("s", "text");
  w.kv("b", true);
  w.kv(std::string("k"), std::string("v"));
  w.end_object();
  EXPECT_EQ(os.str(), R"({"s":"text","b":true,"k":"v"})");
}

}  // namespace
}  // namespace mmr
