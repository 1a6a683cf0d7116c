/** @file Unit tests for string helpers. */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "support/str.hh"

namespace hilp {
namespace {

TEST(Str, FormatBasic)
{
    EXPECT_EQ(format("x=%d y=%s", 5, "abc"), "x=5 y=abc");
    EXPECT_EQ(format("%.2f", 3.14159), "3.14");
    EXPECT_EQ(format("plain"), "plain");
}

TEST(Str, FormatLongString)
{
    std::string long_arg(500, 'a');
    std::string out = format("<%s>", long_arg.c_str());
    EXPECT_EQ(out.size(), 502u);
}

TEST(Str, SplitBasic)
{
    auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(Str, SplitKeepsEmptyFields)
{
    auto parts = split(",a,,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "");
}

TEST(Str, SplitNoDelimiter)
{
    auto parts = split("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(Str, TrimBasic)
{
    EXPECT_EQ(trim("  hi  "), "hi");
    EXPECT_EQ(trim("\t\nhi\r "), "hi");
    EXPECT_EQ(trim("hi"), "hi");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(Str, JoinBasic)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({"solo"}, ","), "solo");
    EXPECT_EQ(join({}, ","), "");
}

TEST(Str, StartsWith)
{
    EXPECT_TRUE(startsWith("hello", "he"));
    EXPECT_TRUE(startsWith("hello", ""));
    EXPECT_TRUE(startsWith("hello", "hello"));
    EXPECT_FALSE(startsWith("hello", "hello!"));
    EXPECT_FALSE(startsWith("hello", "el"));
}

TEST(Str, ToLower)
{
    EXPECT_EQ(toLower("HeLLo 123"), "hello 123");
    EXPECT_EQ(toLower(""), "");
}

TEST(Str, FmtDouble)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtDouble(3.14159, 0), "3");
    EXPECT_EQ(fmtDouble(-1.5, 1), "-1.5");
    EXPECT_EQ(fmtDouble(2.0, 3), "2.000");
}

TEST(Str, ParseBytesSuffixes)
{
    size_t out = 0;
    EXPECT_TRUE(parseBytes("0", &out));
    EXPECT_EQ(out, 0u);
    EXPECT_TRUE(parseBytes("123", &out));
    EXPECT_EQ(out, 123u);
    EXPECT_TRUE(parseBytes("4K", &out));
    EXPECT_EQ(out, 4u << 10);
    EXPECT_TRUE(parseBytes("4k", &out));
    EXPECT_EQ(out, 4u << 10);
    EXPECT_TRUE(parseBytes("512M", &out));
    EXPECT_EQ(out, size_t{512} << 20);
    EXPECT_TRUE(parseBytes("3m", &out));
    EXPECT_EQ(out, size_t{3} << 20);
    EXPECT_TRUE(parseBytes("2G", &out));
    EXPECT_EQ(out, size_t{2} << 30);
    EXPECT_TRUE(parseBytes("7g", &out));
    EXPECT_EQ(out, size_t{7} << 30);
}

TEST(Str, ParseBytesRejectsOverflow)
{
    constexpr size_t kMax = std::numeric_limits<size_t>::max();
    size_t out = 42;
    EXPECT_TRUE(parseBytes(std::to_string(kMax), &out));
    EXPECT_EQ(out, kMax);
    // One past the maximum, in the digits and through each suffix:
    // 17179869184G is 2^64 bytes, which an unchecked shift wraps to 0
    // (an unbounded memo).
    out = 42;
    EXPECT_FALSE(parseBytes("18446744073709551616", &out));
    EXPECT_FALSE(parseBytes("99999999999999999999999", &out));
    EXPECT_FALSE(parseBytes("17179869184G", &out));
    EXPECT_FALSE(parseBytes("17592186044416M", &out));
    EXPECT_FALSE(parseBytes("18014398509481984K", &out));
    EXPECT_EQ(out, 42u);
    EXPECT_TRUE(parseBytes("17179869183G", &out));
    EXPECT_EQ(out, size_t{17179869183} << 30);
}

TEST(Str, ParseBytesRejectsSignsAndGarbage)
{
    size_t out = 42;
    for (const char *bad : {"", "-1", "-1K", "+1", " 1", "1 ", "abc",
                            "64X", "1KB", "1.5M", "K", "0x10", "1Kk"})
        EXPECT_FALSE(parseBytes(bad, &out)) << '"' << bad << '"';
    EXPECT_EQ(out, 42u);
}

TEST(Str, ParseIntAcceptsBothRangeEnds)
{
    int64_t out = 0;
    EXPECT_TRUE(parseInt("-5", -5, 5, &out));
    EXPECT_EQ(out, -5);
    EXPECT_TRUE(parseInt("5", -5, 5, &out));
    EXPECT_EQ(out, 5);
    EXPECT_TRUE(parseInt("0", -5, 5, &out));
    EXPECT_EQ(out, 0);
    out = 42;
    EXPECT_FALSE(parseInt("-6", -5, 5, &out));
    EXPECT_FALSE(parseInt("6", -5, 5, &out));
    // -1 (2^64 - 1 through strtoull) and 2^32 + 2 (an accepted 2
    // once narrowed to int) must not pass as a [1, 65536] queue
    // depth.
    EXPECT_FALSE(parseInt("-1", 1, 65536, &out));
    EXPECT_FALSE(parseInt("0", 1, 65536, &out));
    EXPECT_FALSE(parseInt("4294967298", 1, 65536, &out));
    EXPECT_EQ(out, 42);
}

TEST(Str, ParseIntRejectsOverflow)
{
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    int64_t out = 42;
    EXPECT_TRUE(parseInt("9223372036854775807", kMin, kMax, &out));
    EXPECT_EQ(out, kMax);
    EXPECT_TRUE(parseInt("-9223372036854775808", kMin, kMax, &out));
    EXPECT_EQ(out, kMin);
    out = 42;
    EXPECT_FALSE(parseInt("9223372036854775808", kMin, kMax, &out));
    EXPECT_FALSE(parseInt("-9223372036854775809", kMin, kMax, &out));
    // What strtoull makes of "-1" for a size_t flag.
    EXPECT_FALSE(parseInt("18446744073709551615", kMin, kMax, &out));
    EXPECT_FALSE(
        parseInt("99999999999999999999999", kMin, kMax, &out));
    EXPECT_EQ(out, 42);
}

TEST(Str, ParseIntRejectsSignsAndGarbage)
{
    int64_t out = 42;
    for (const char *bad : {"", "-", "+1", "--1", "-+1", " 1", "1 ",
                            "lots", "soon", "1.5", "1e3", "0x10", "12a",
                            "1,000"})
        EXPECT_FALSE(parseInt(bad, -100, 100000, &out))
            << '"' << bad << '"';
    EXPECT_EQ(out, 42);
}

TEST(Str, ParseRealAcceptsBothRangeEnds)
{
    double out = 0.0;
    EXPECT_TRUE(parseReal("0", 0.0, 1e6, &out));
    EXPECT_DOUBLE_EQ(out, 0.0);
    EXPECT_TRUE(parseReal("1e6", 0.0, 1e6, &out));
    EXPECT_DOUBLE_EQ(out, 1e6);
    EXPECT_TRUE(parseReal("2.5", 0.0, 1e6, &out));
    EXPECT_DOUBLE_EQ(out, 2.5);
    EXPECT_TRUE(parseReal("-.5", -1.0, 1.0, &out));
    EXPECT_DOUBLE_EQ(out, -0.5);
    out = 42.0;
    EXPECT_FALSE(parseReal("-0.001", 0.0, 1e6, &out));
    EXPECT_FALSE(parseReal("1000000.5", 0.0, 1e6, &out));
    EXPECT_DOUBLE_EQ(out, 42.0);
}

TEST(Str, ParseRealRejectsGarbageAndNonFinite)
{
    double out = 42.0;
    for (const char *bad : {"", "-", ".", "e5", "soon", "1s", " 1",
                            "1 ", "1.5.5", "nan", "inf", "-inf", "1e999",
                            "0x1p3", "1,5"})
        EXPECT_FALSE(parseReal(bad, -1e308, 1e308, &out))
            << '"' << bad << '"';
    EXPECT_DOUBLE_EQ(out, 42.0);
}

} // anonymous namespace
} // namespace hilp
