#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace hetsched::json {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Value::parse("null").is_null());
  EXPECT_TRUE(Value::parse("true").as_bool());
  EXPECT_FALSE(Value::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Value::parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(Value::parse("-0.25e2").as_number(), -25.0);
  EXPECT_EQ(Value::parse("42").as_int64(), 42);
  EXPECT_EQ(Value::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, Containers) {
  const Value value = Value::parse(R"({"a":[1,2,3],"b":{"c":true}})");
  ASSERT_TRUE(value.is_object());
  EXPECT_EQ(value.at("a").as_array().size(), 3u);
  EXPECT_EQ(value.at("a").as_array()[2].as_int64(), 3);
  EXPECT_TRUE(value.at("b").at("c").as_bool());
  EXPECT_EQ(value.find("missing"), nullptr);
  EXPECT_THROW(value.at("missing"), InvalidArgument);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Value::parse(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  // \u escape, including a surrogate pair (U+1F600).
  EXPECT_EQ(Value::parse(R"("é")").as_string(), "\xc3\xa9");
  EXPECT_EQ(Value::parse(R"("😀")").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(Value::parse(""), InvalidArgument);
  EXPECT_THROW(Value::parse("{"), InvalidArgument);
  EXPECT_THROW(Value::parse("[1,]"), InvalidArgument);
  EXPECT_THROW(Value::parse("1 2"), InvalidArgument);        // trailing junk
  EXPECT_THROW(Value::parse("{'a':1}"), InvalidArgument);    // wrong quotes
  EXPECT_THROW(Value::parse("\"\x01\""), InvalidArgument);   // raw control
  EXPECT_THROW(Value::parse(R"("\ud83d")"), InvalidArgument);  // lone surrogate
  EXPECT_THROW(Value::parse(R"({"a":1,"a":2})"), InvalidArgument);  // dup key
  EXPECT_THROW(Value::parse("NaN"), InvalidArgument);
}

TEST(JsonParse, NestingUpToTheLimitParses) {
  const std::string arrays = std::string(kMaxParseDepth, '[') +
                             std::string(kMaxParseDepth, ']');
  EXPECT_TRUE(Value::parse(arrays).is_array());
  std::string objects;
  for (int i = 0; i < kMaxParseDepth; ++i) objects += "{\"k\":";
  objects += "1" + std::string(kMaxParseDepth, '}');
  EXPECT_TRUE(Value::parse(objects).is_object());
}

TEST(JsonParse, NestingPastTheLimitThrowsInsteadOfOverflowing) {
  const std::string one_too_deep = std::string(kMaxParseDepth + 1, '[') +
                                   std::string(kMaxParseDepth + 1, ']');
  EXPECT_THROW(Value::parse(one_too_deep), InvalidArgument);
  // The input that once overflowed the stack: an unterminated run of '['.
  try {
    Value::parse(std::string(50'000, '['));
    FAIL() << "deep nesting parsed";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("nesting"), std::string::npos);
  }
  std::string mixed;
  for (int i = 0; i < 50'000; ++i) mixed += "{\"k\":[";
  EXPECT_THROW(Value::parse(mixed), InvalidArgument);
}

TEST(JsonParse, TypeMismatchThrows) {
  const Value value = Value::parse("[1]");
  EXPECT_THROW(value.as_object(), InvalidArgument);
  EXPECT_THROW(value.as_string(), InvalidArgument);
  EXPECT_THROW(value.at("x"), InvalidArgument);
}

// Casting an out-of-range double to int64 is undefined behaviour; the
// accessor must reject it before the cast (a float-cast-overflow sanitizer
// build reports the cast itself).
TEST(JsonParse, Int64OutOfRangeThrows) {
  EXPECT_THROW(Value::parse("1e300").as_int64(), InvalidArgument);
  EXPECT_THROW(Value::parse("-1e300").as_int64(), InvalidArgument);
  EXPECT_THROW(Value::parse("9223372036854775808").as_int64(),
               InvalidArgument);
  EXPECT_EQ(Value::parse("-9223372036854775808").as_int64(),
            std::numeric_limits<std::int64_t>::min());
}

TEST(JsonDump, BuildAndDump) {
  Value object;
  object.set("name", "sweep");
  object.set("count", 3);
  object.set("ratio", 0.5);
  Value list;
  list.push_back(1);
  list.push_back(false);
  object.set("items", std::move(list));
  EXPECT_EQ(object.dump(),
            R"({"name":"sweep","count":3,"ratio":0.5,"items":[1,false]})");
}

TEST(JsonDump, PreservesInsertionOrder) {
  const std::string text = R"({"z":1,"a":2,"m":3})";
  EXPECT_EQ(Value::parse(text).dump(), text);
}

TEST(JsonDump, ParseDumpRoundTripIsByteStable) {
  // The sweep-cache contract: any document this library produced re-parses
  // and re-dumps to identical bytes.
  const std::string text =
      R"({"a":0.1,"b":1e-300,"c":[true,null,"x\n"],"d":1234567890123})";
  const std::string once = Value::parse(text).dump();
  EXPECT_EQ(Value::parse(once).dump(), once);
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(escape(std::string(1, '\x02')), "\\u0002");
}

TEST(JsonFormatDouble, IntegralAndShortestForms) {
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(-0.0), "0");
  EXPECT_EQ(format_double(12.0), "12");
  EXPECT_EQ(format_double(-3.0), "-3");
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(0.1), "0.1");
}

TEST(JsonFormatDouble, RoundTripsExactly) {
  const double values[] = {1.0 / 3.0,     2.2250738585072014e-308,
                           1.7976931348623157e308, 123456.789,
                           -9.87654321e-12, 3.141592653589793};
  for (double value : values) {
    EXPECT_EQ(std::stod(format_double(value)), value) << value;
  }
}

TEST(JsonFormatDouble, RejectsNonFinite) {
  EXPECT_THROW(format_double(std::numeric_limits<double>::quiet_NaN()),
               InvalidArgument);
  EXPECT_THROW(format_double(std::numeric_limits<double>::infinity()),
               InvalidArgument);
}

}  // namespace
}  // namespace hetsched::json
