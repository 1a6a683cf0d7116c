/** @file Tests for SoC configuration-label parsing. */

#include <gtest/gtest.h>

#include <string>

#include "arch/parse.hh"

namespace hilp {
namespace arch {
namespace {

const std::vector<int> kPriority = {5, 3, 1, 0};

TEST(ParseSoc, FullLabel)
{
    SocParseResult r = parseSocName("(c4,g16,d2^16)", kPriority);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.config.cpuCores, 4);
    EXPECT_EQ(r.config.gpuSms, 16);
    ASSERT_EQ(r.config.dsas.size(), 2u);
    EXPECT_EQ(r.config.dsas[0].pes, 16);
    EXPECT_EQ(r.config.dsas[0].target, 5);
    EXPECT_EQ(r.config.dsas[1].target, 3);
    EXPECT_DOUBLE_EQ(r.config.dsaAdvantage, 4.0);
}

TEST(ParseSoc, RoundTripsThroughName)
{
    SocParseResult r = parseSocName("(c2,g64,d3^4)", kPriority);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.config.name(), "(c2,g64,d3^4)");
}

TEST(ParseSoc, ParenthesesAndWhitespaceOptional)
{
    SocParseResult bare = parseSocName("c1,g0,d0^0", kPriority);
    ASSERT_TRUE(bare.ok);
    EXPECT_EQ(bare.config.cpuCores, 1);
    EXPECT_TRUE(bare.config.dsas.empty());
    SocParseResult spaced =
        parseSocName(" ( c1 , g0 , d0^0 ) ", kPriority);
    ASSERT_TRUE(spaced.ok);
}

TEST(ParseSoc, DsaCountWithoutPesDefaultsToOne)
{
    SocParseResult r = parseSocName("(c1,g4,d2)", kPriority);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.config.dsas.size(), 2u);
    EXPECT_EQ(r.config.dsas[0].pes, 1);
}

TEST(ParseSoc, CustomAdvantage)
{
    SocParseResult r = parseSocName("(c1,g4,d1^4)", kPriority, 8.0);
    ASSERT_TRUE(r.ok);
    EXPECT_DOUBLE_EQ(r.config.dsaAdvantage, 8.0);
}

TEST(ParseSoc, RejectsWrongFieldCount)
{
    SocParseResult r = parseSocName("(c4,g16)", kPriority);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("three"), std::string::npos);
}

TEST(ParseSoc, RejectsWrongPrefixes)
{
    EXPECT_FALSE(parseSocName("(x4,g16,d0^0)", kPriority).ok);
    EXPECT_FALSE(parseSocName("(c4,x16,d0^0)", kPriority).ok);
}

TEST(ParseSoc, RejectsGarbageNumbers)
{
    EXPECT_FALSE(parseSocName("(c4a,g16,d0^0)", kPriority).ok);
    EXPECT_FALSE(parseSocName("(c4,g16,d1^x)", kPriority).ok);
    EXPECT_FALSE(parseSocName("(c-1,g16,d0^0)", kPriority).ok);
    EXPECT_FALSE(parseSocName("(c+1,g16,d0^0)", kPriority).ok);
    EXPECT_FALSE(parseSocName("(c1,g-0,d0^0)", kPriority).ok);
    // Counts past int range must not wrap: 2^32 - 1 would become -1
    // (an invalid SoC the lowering is fatal on), 99999999999 another
    // config whose label does not match the request's.
    for (const char *label :
         {"(c1,g4294967295,d0)", "(c1,g99999999999,d0)",
          "(c4294967297,g0,d0)", "(c1,g0,d1^4294967296)",
          "(c1,g0,d18446744073709551617^1)"}) {
        SocParseResult r = parseSocName(label, kPriority);
        EXPECT_FALSE(r.ok) << label;
        EXPECT_NE(r.error.find("malformed count"), std::string::npos)
            << label << ": " << r.error;
    }
    // The stated cap, and one past it.
    const std::string cap = std::to_string(kMaxLabelCount);
    const std::string over = std::to_string(kMaxLabelCount + 1);
    EXPECT_TRUE(parseSocName("(c1,g" + cap + ",d0)", kPriority).ok);
    EXPECT_FALSE(parseSocName("(c1,g" + over + ",d0)", kPriority).ok);
    EXPECT_FALSE(parseSocName("(c" + over + ",g0,d0)", kPriority).ok);
    EXPECT_FALSE(
        parseSocName("(c1,g0,d1^" + over + ")", kPriority).ok);
}

TEST(ParseSoc, RejectsZeroCpus)
{
    SocParseResult r = parseSocName("(c0,g16,d0^0)", kPriority);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("CPU"), std::string::npos);
}

TEST(ParseSoc, RejectsTooManyDsas)
{
    SocParseResult r = parseSocName("(c1,g0,d9^1)", kPriority);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("priority"), std::string::npos);
}

TEST(ParseSoc, RejectsZeroPeDsas)
{
    SocParseResult r = parseSocName("(c1,g0,d2^0)", kPriority);
    EXPECT_FALSE(r.ok);
}

TEST(ParseSoc, ParsedConfigsAreValid)
{
    const std::string cap = std::to_string(kMaxLabelCount);
    for (const std::string &label :
         {std::string("(c1,g0,d0^0)"), std::string("(c4,g64,d4^16)"),
          std::string("(c2,g4,d1^1)"),
          "(c" + cap + ",g" + cap + ",d4^" + cap + ")"}) {
        SocParseResult r = parseSocName(label, kPriority);
        ASSERT_TRUE(r.ok) << label;
        EXPECT_TRUE(r.config.valid()) << label;
        EXPECT_EQ(r.config.name(), label);
    }
}

} // anonymous namespace
} // namespace arch
} // namespace hilp
