/** @file Tests for workload CSV import/export. */

#include <gtest/gtest.h>

#include "oracles/synthetic.hh"
#include "workload/io.hh"
#include "workload/rodinia.hh"

namespace hilp {
namespace workload {
namespace {

TEST(WorkloadIo, RoundTripsRodinia)
{
    Workload original = makeWorkload(Variant::Default);
    ParseResult parsed = workloadFromCsv(workloadToCsv(original),
                                         original.name);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    ASSERT_EQ(parsed.workload.apps.size(), original.apps.size());
    for (size_t a = 0; a < original.apps.size(); ++a) {
        const Application &lhs = original.apps[a];
        const Application &rhs = parsed.workload.apps[a];
        EXPECT_EQ(lhs.name, rhs.name);
        ASSERT_EQ(lhs.phases.size(), rhs.phases.size());
        for (size_t p = 0; p < lhs.phases.size(); ++p) {
            EXPECT_EQ(lhs.phases[p].name, rhs.phases[p].name);
            EXPECT_EQ(lhs.phases[p].kind, rhs.phases[p].kind);
            EXPECT_DOUBLE_EQ(lhs.phases[p].cpuTime1,
                             rhs.phases[p].cpuTime1);
            EXPECT_DOUBLE_EQ(lhs.phases[p].gpuTime98,
                             rhs.phases[p].gpuTime98);
            EXPECT_DOUBLE_EQ(lhs.phases[p].gpuBwBase,
                             rhs.phases[p].gpuBwBase);
            EXPECT_DOUBLE_EQ(lhs.phases[p].timeLaw.a,
                             rhs.phases[p].timeLaw.a);
            EXPECT_DOUBLE_EQ(lhs.phases[p].timeLaw.b,
                             rhs.phases[p].timeLaw.b);
            EXPECT_DOUBLE_EQ(lhs.phases[p].bwLaw.b,
                             rhs.phases[p].bwLaw.b);
            EXPECT_DOUBLE_EQ(lhs.phases[p].freqGamma,
                             rhs.phases[p].freqGamma);
            EXPECT_EQ(lhs.phases[p].dsaTarget,
                      rhs.phases[p].dsaTarget);
            EXPECT_EQ(lhs.phases[p].gpuCompatible,
                      rhs.phases[p].gpuCompatible);
        }
    }
}

TEST(WorkloadIo, RoundTripsSynthetic)
{
    SyntheticOptions options;
    options.numApps = 7;
    options.seed = 5;
    Workload original = makeSyntheticWorkload(options);
    ParseResult parsed = workloadFromCsv(workloadToCsv(original));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.workload.numPhases(), original.numPhases());
    EXPECT_DOUBLE_EQ(sequentialCpuTimeS(parsed.workload),
                     sequentialCpuTimeS(original));
}

TEST(WorkloadIo, NamePropagates)
{
    Workload original = makeWorkload(Variant::Rodinia);
    ParseResult parsed =
        workloadFromCsv(workloadToCsv(original), "my-name");
    ASSERT_TRUE(parsed.ok);
    EXPECT_EQ(parsed.workload.name, "my-name");
}

TEST(WorkloadIo, RejectsMissingHeader)
{
    ParseResult parsed = workloadFromCsv("a,b,c\n");
    EXPECT_FALSE(parsed.ok);
    EXPECT_NE(parsed.error.find("header"), std::string::npos);
}

TEST(WorkloadIo, RejectsEmptyInput)
{
    ParseResult parsed = workloadFromCsv("");
    EXPECT_FALSE(parsed.ok);
}

TEST(WorkloadIo, RejectsWrongColumnCount)
{
    std::string csv = workloadToCsv(makeWorkload(Variant::Default));
    csv += "extra,row\n";
    ParseResult parsed = workloadFromCsv(csv);
    EXPECT_FALSE(parsed.ok);
    EXPECT_NE(parsed.error.find("columns"), std::string::npos);
}

TEST(WorkloadIo, RejectsUnknownKind)
{
    std::string csv = workloadToCsv(makeWorkload(Variant::Default));
    csv += "x,x.p,weird,1,0,0,0,1,0,1,0,1,-1\n";
    ParseResult parsed = workloadFromCsv(csv);
    EXPECT_FALSE(parsed.ok);
    EXPECT_NE(parsed.error.find("kind"), std::string::npos);
}

TEST(WorkloadIo, RejectsMalformedNumbers)
{
    std::string csv = workloadToCsv(makeWorkload(Variant::Default));
    csv += "x,x.p,compute,abc,1,1,1,1,1,1,1,1,-1\n";
    ParseResult parsed = workloadFromCsv(csv);
    EXPECT_FALSE(parsed.ok);
    EXPECT_NE(parsed.error.find("numeric"), std::string::npos);
}

TEST(WorkloadIo, SkipsCommentsAndBlankLines)
{
    std::string csv = "# a comment\n\n" +
                      workloadToCsv(makeWorkload(Variant::Default)) +
                      "\n# trailing\n";
    ParseResult parsed = workloadFromCsv(csv);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.workload.apps.size(), 10u);
}

TEST(WorkloadIo, ErrorsIncludeLineNumbers)
{
    std::string csv = workloadToCsv(makeWorkload(Variant::Default));
    csv += "bad\n";
    ParseResult parsed = workloadFromCsv(csv);
    ASSERT_FALSE(parsed.ok);
    EXPECT_NE(parsed.error.find("line 32"), std::string::npos)
        << parsed.error;
}

} // anonymous namespace
} // namespace workload
} // namespace hilp
