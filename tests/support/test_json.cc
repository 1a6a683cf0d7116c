/** @file Unit tests for the JSON writer and reader. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "support/json.hh"
#include "support/random.hh"
#include "support/str.hh"

namespace hilp {
namespace {

double
fromBits(uint64_t bits)
{
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/**
 * Finite doubles for the number-text tests: the edges of each range
 * (zeros, subnormals, the normal limits, where %.17g switches to an
 * exponent, integers near 2^53), integral doubles (small integers,
 * powers of two and of ten, both signs), plus seeded random bit
 * patterns, a quarter of them forced subnormal.
 */
std::vector<double>
finiteDoubles()
{
    using limits = std::numeric_limits<double>;
    std::vector<double> values = {
        0.0, -0.0, limits::denorm_min(), -limits::denorm_min(),
        fromBits(0x000fffffffffffffull), limits::min(),
        std::nextafter(limits::min(), 0.0), limits::max(),
        -limits::max(), limits::epsilon(), 1.0, -1.0, 0.1, 0.5,
        1.0 / 3.0, 2.0 / 3.0, 1e-5, 1e-4, 3e-5, 1e16, 1e17,
        9.9999999999999994e16, 123456789012345678.0, 0x1p53,
        0x1p53 + 2.0, 0x1p63, 1e21, 1e22, 1e300, 1e-300,
        4.9406564584124654e-324, 9.9999999999999694e-311};
    for (int i = -1024; i <= 1024; ++i)
        values.push_back(i);
    for (int k = 0; k <= 62; ++k) {
        values.push_back(std::ldexp(1.0, k));
        values.push_back(-std::ldexp(1.0, k));
    }
    for (int k = 0; k <= 22; ++k) {
        values.push_back(std::pow(10.0, k));
        values.push_back(-std::pow(10.0, k));
    }
    for (int d = 1; d <= 4; ++d) {
        values.push_back(0x1p53 + d);
        values.push_back(0x1p53 - d);
    }
    Rng rng(20261017);
    while (values.size() < 200000) {
        uint64_t bits = rng.next();
        if (values.size() % 4 == 0)
            bits &= 0x800fffffffffffffull; // Exponent 0: subnormal.
        double value = fromBits(bits);
        if (std::isfinite(value))
            values.push_back(value);
    }
    return values;
}

TEST(JsonTest, Scalars)
{
    EXPECT_EQ(Json::null().dump(), "null");
    EXPECT_EQ(Json::boolean(true).dump(), "true");
    EXPECT_EQ(Json::boolean(false).dump(), "false");
    EXPECT_EQ(Json::number(static_cast<int64_t>(42)).dump(), "42");
    EXPECT_EQ(Json::number(-7.5).dump(), "-7.5");
    EXPECT_EQ(Json::string("hi").dump(), "\"hi\"");
}

TEST(JsonTest, NonFiniteNumbersBecomeNull)
{
    EXPECT_EQ(Json::number(
        std::numeric_limits<double>::infinity()).dump(), "null");
    EXPECT_EQ(Json::number(
        std::numeric_limits<double>::quiet_NaN()).dump(), "null");
}

TEST(JsonTest, EmptyContainers)
{
    EXPECT_EQ(Json::object().dump(), "{}");
    EXPECT_EQ(Json::array().dump(), "[]");
}

TEST(JsonTest, ObjectCompact)
{
    Json json = Json::object();
    json.set("a", Json::number(static_cast<int64_t>(1)));
    json.set("b", Json::string("x"));
    EXPECT_EQ(json.dump(), "{\"a\":1,\"b\":\"x\"}");
}

TEST(JsonTest, SetOverwritesExistingKey)
{
    Json json = Json::object();
    json.set("a", Json::number(static_cast<int64_t>(1)));
    json.set("a", Json::number(static_cast<int64_t>(2)));
    EXPECT_EQ(json.size(), 1u);
    EXPECT_EQ(json.dump(), "{\"a\":2}");
}

TEST(JsonTest, ArrayAppend)
{
    Json json = Json::array();
    json.append(Json::number(static_cast<int64_t>(1)));
    json.append(Json::boolean(false));
    EXPECT_EQ(json.dump(), "[1,false]");
    EXPECT_EQ(json.size(), 2u);
}

TEST(JsonTest, Nesting)
{
    Json inner = Json::array();
    inner.append(Json::number(static_cast<int64_t>(1)));
    Json json = Json::object();
    json.set("xs", std::move(inner));
    EXPECT_EQ(json.dump(), "{\"xs\":[1]}");
}

TEST(JsonTest, PrettyPrinting)
{
    Json json = Json::object();
    json.set("a", Json::number(static_cast<int64_t>(1)));
    EXPECT_EQ(json.dump(2), "{\n  \"a\": 1\n}");
}

TEST(JsonTest, StringEscaping)
{
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(jsonEscape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(jsonEscape("tab\there"), "tab\\there");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonTest, EscapedStringsInDump)
{
    EXPECT_EQ(Json::string("a\"b").dump(), "\"a\\\"b\"");
}

TEST(JsonTest, RoundNumbersStayPrecise)
{
    EXPECT_EQ(Json::number(0.1).dump(),
              "0.10000000000000001"); // %.17g round-trip precision.
    EXPECT_EQ(Json::number(2.0).dump(), "2");
}

TEST(JsonTest, CopiesAreIndependent)
{
    Json inner = Json::array();
    inner.append(Json::string("leaf"));
    inner.append(Json::number(1.5));
    Json source = Json::object();
    source.set("list", std::move(inner));
    source.set("name", Json::string("source"));
    Json nested = Json::object();
    nested.set("k", Json::number(static_cast<int64_t>(7)));
    source.set("obj", std::move(nested));
    const std::string before = source.dump();

    Json copy = source;
    Json list = *copy.find("list");
    list.append(Json::null());
    copy.set("list", std::move(list));
    copy.set("name", Json::string("copy"));
    Json obj = *copy.find("obj");
    obj.set("k", Json::boolean(false));
    obj.set("extra", Json::string("x"));
    copy.set("obj", std::move(obj));

    Json assigned = Json::array();
    assigned = source;
    assigned.set("name", Json::string("assigned"));
    const Json &alias = assigned;
    assigned = alias; // Self-assignment keeps the value.

    Json text = Json::string("text");
    Json text_copy = text;
    text_copy = Json::string("changed");

    EXPECT_EQ(source.dump(), before);
    EXPECT_EQ(copy.dump(),
              "{\"list\":[\"leaf\",1.5,null],\"name\":\"copy\","
              "\"obj\":{\"k\":false,\"extra\":\"x\"}}");
    EXPECT_EQ(assigned.find("name")->stringValue(), "assigned");
    EXPECT_EQ(text.dump(), "\"text\"");
    EXPECT_EQ(text_copy.dump(), "\"changed\"");
}

TEST(JsonTest, NumberTextMatchesPrintf)
{
    for (double value : finiteDoubles())
        ASSERT_EQ(Json::number(value).dump(), format("%.17g", value));
    std::vector<int64_t> integers = {
        0, 1, -1, 10, -10, 1234567890123456789,
        std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::max()};
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        integers.push_back(static_cast<int64_t>(rng.next()));
    for (int64_t value : integers)
        ASSERT_EQ(Json::number(value).dump(), std::to_string(value));
}

TEST(JsonParseTest, Scalars)
{
    Json value;
    ASSERT_TRUE(Json::parse("null", &value));
    EXPECT_TRUE(value.isNull());
    ASSERT_TRUE(Json::parse("true", &value));
    EXPECT_TRUE(value.isBool());
    EXPECT_TRUE(value.boolValue());
    ASSERT_TRUE(Json::parse("false", &value));
    EXPECT_FALSE(value.boolValue());
    ASSERT_TRUE(Json::parse("42", &value));
    EXPECT_TRUE(value.isNumber());
    EXPECT_EQ(value.intValue(), 42);
    ASSERT_TRUE(Json::parse("-7.5", &value));
    EXPECT_DOUBLE_EQ(value.numberValue(), -7.5);
    ASSERT_TRUE(Json::parse("1e3", &value));
    EXPECT_DOUBLE_EQ(value.numberValue(), 1000.0);
    ASSERT_TRUE(Json::parse("\"hi\"", &value));
    EXPECT_TRUE(value.isString());
    EXPECT_EQ(value.stringValue(), "hi");
}

TEST(JsonParseTest, IntegersAreDistinctFromDoubles)
{
    Json value;
    ASSERT_TRUE(Json::parse("-9223372036854775808", &value));
    EXPECT_TRUE(value.isInteger());
    EXPECT_EQ(value.intValue(), std::numeric_limits<int64_t>::min());
    for (const char *text : {"1.0", "1e3", "9223372036854775808"}) {
        ASSERT_TRUE(Json::parse(text, &value)) << text;
        EXPECT_TRUE(value.isNumber()) << text;
        EXPECT_FALSE(value.isInteger()) << text;
    }
}

TEST(JsonParseTest, IntValueSaturatesOutOfRangeDoubles)
{
    // Casting these doubles to int64 directly is undefined behavior.
    Json value;
    ASSERT_TRUE(Json::parse("1e30", &value));
    EXPECT_EQ(value.intValue(), std::numeric_limits<int64_t>::max());
    ASSERT_TRUE(Json::parse("9223372036854775808", &value));
    EXPECT_EQ(value.intValue(), std::numeric_limits<int64_t>::max());
    ASSERT_TRUE(Json::parse("-1e30", &value));
    EXPECT_EQ(value.intValue(), std::numeric_limits<int64_t>::min());
    ASSERT_TRUE(Json::parse("-2.5", &value));
    EXPECT_EQ(value.intValue(), -2);
    EXPECT_EQ(Json::number(std::numeric_limits<double>::quiet_NaN())
                  .intValue(),
              0);
}

TEST(JsonParseTest, Containers)
{
    Json value;
    ASSERT_TRUE(Json::parse("  [1, \"two\", [true]] ", &value));
    ASSERT_TRUE(value.isArray());
    ASSERT_EQ(value.size(), 3u);
    EXPECT_EQ(value.at(0).intValue(), 1);
    EXPECT_EQ(value.at(1).stringValue(), "two");
    EXPECT_TRUE(value.at(2).at(0).boolValue());

    ASSERT_TRUE(Json::parse("{\"a\": 1, \"b\": {\"c\": []}}", &value));
    ASSERT_TRUE(value.isObject());
    ASSERT_NE(value.find("a"), nullptr);
    EXPECT_EQ(value.find("a")->intValue(), 1);
    ASSERT_NE(value.find("b"), nullptr);
    ASSERT_NE(value.find("b")->find("c"), nullptr);
    EXPECT_TRUE(value.find("b")->find("c")->isArray());
    EXPECT_EQ(value.find("missing"), nullptr);
}

TEST(JsonParseTest, DuplicateKeysKeepTheLastValueAtTheFirstPosition)
{
    Json value;
    ASSERT_TRUE(Json::parse("{\"a\":1,\"b\":2,\"a\":3}", &value));
    const auto &members = value.members();
    ASSERT_EQ(members.size(), 2u);
    EXPECT_EQ(members[0].first, "a");
    EXPECT_EQ(members[0].second.intValue(), 3);
    EXPECT_EQ(members[1].first, "b");
    EXPECT_EQ(members[1].second.intValue(), 2);
    EXPECT_EQ(value.dump(), "{\"a\":3,\"b\":2}");

    // A large object, whose duplicates are found by sorting its keys,
    // gives what a set() per member gives.
    std::string text = "{";
    Json expected = Json::object();
    for (int i = 0; i < 200; ++i) {
        const std::string key = "k" + std::to_string(i % 70);
        const Json member = Json::number(static_cast<int64_t>(i));
        text += (i > 0 ? "," : "") + Json::string(key).dump() + ":" +
                member.dump();
        expected.set(key, member);
    }
    text += "}";
    ASSERT_TRUE(Json::parse(text, &value));
    EXPECT_EQ(value.size(), 70u);
    EXPECT_EQ(value.dump(), expected.dump());
}

TEST(JsonParseTest, StringEscapes)
{
    Json value;
    ASSERT_TRUE(Json::parse(
        "\"a\\\"b\\\\c\\n\\t\\u0041\"", &value));
    EXPECT_EQ(value.stringValue(), "a\"b\\c\n\tA");
    // Surrogate pair: U+1F600 encodes to 4 UTF-8 bytes.
    ASSERT_TRUE(Json::parse("\"\\uD83D\\uDE00\"", &value));
    EXPECT_EQ(value.stringValue().size(), 4u);
}

TEST(JsonParseTest, RejectsMalformedInput)
{
    Json value;
    std::string error;
    EXPECT_FALSE(Json::parse("", &value, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(Json::parse("{", &value));
    EXPECT_FALSE(Json::parse("[1,]", &value));
    EXPECT_FALSE(Json::parse("{\"a\" 1}", &value));
    EXPECT_FALSE(Json::parse("\"unterminated", &value));
    EXPECT_FALSE(Json::parse("nul", &value));
    EXPECT_FALSE(Json::parse("1 2", &value)); // Trailing token.
    // Overflow, and underflow to zero, are out of range.
    EXPECT_FALSE(Json::parse("1e400", &value));
    EXPECT_FALSE(Json::parse("-1e400", &value));
    EXPECT_FALSE(Json::parse("1e-400", &value));
    EXPECT_FALSE(Json::parse("1.5e", &value));
    EXPECT_TRUE(value.isNull()); // Left null on failure.
}

TEST(JsonParseTest, RoundTripsEveryFiniteDouble)
{
    for (double value : finiteDoubles()) {
        Json array = Json::array();
        array.append(Json::number(value));
        const std::string text = array.dump();
        Json parsed;
        std::string error;
        ASSERT_TRUE(Json::parse(text, &parsed, &error))
            << text << ": " << error;
        ASSERT_EQ(parsed.at(0).numberValue(), value) << text;
    }
}

TEST(JsonParseTest, RoundTripsWriterOutput)
{
    Json original = Json::object();
    original.set("n", Json::number(static_cast<int64_t>(-3)));
    original.set("x", Json::number(0.25));
    original.set("s", Json::string("quote\" and \\slash\n"));
    Json list = Json::array();
    list.append(Json::boolean(true));
    list.append(Json::null());
    original.set("list", std::move(list));

    for (int indent : {-1, 2}) {
        Json reparsed;
        std::string error;
        ASSERT_TRUE(Json::parse(original.dump(indent), &reparsed,
                                &error)) << error;
        EXPECT_EQ(reparsed.dump(), original.dump());
    }
}

TEST(JsonParseTest, DepthLimitStopsRunawayNesting)
{
    std::string deep(500, '[');
    deep += std::string(500, ']');
    Json value;
    std::string error;
    EXPECT_FALSE(Json::parse(deep, &value, &error));
    EXPECT_NE(error.find("deep"), std::string::npos);
}

} // anonymous namespace
} // namespace hilp
