/** @file Unit tests for the synthetic workload generator. */

#include <gtest/gtest.h>

#include "oracles/synthetic.hh"

namespace hilp {
namespace workload {
namespace {

TEST(Synthetic, DeterministicForSeed)
{
    SyntheticOptions options;
    options.seed = 7;
    Workload a = makeSyntheticWorkload(options);
    Workload b = makeSyntheticWorkload(options);
    ASSERT_EQ(a.apps.size(), b.apps.size());
    for (size_t i = 0; i < a.apps.size(); ++i) {
        ASSERT_EQ(a.apps[i].phases.size(), b.apps[i].phases.size());
        for (size_t p = 0; p < a.apps[i].phases.size(); ++p) {
            EXPECT_DOUBLE_EQ(a.apps[i].phases[p].cpuTime1,
                             b.apps[i].phases[p].cpuTime1);
        }
    }
}

TEST(Synthetic, DifferentSeedsDiffer)
{
    SyntheticOptions a_options;
    a_options.seed = 1;
    SyntheticOptions b_options;
    b_options.seed = 2;
    Workload a = makeSyntheticWorkload(a_options);
    Workload b = makeSyntheticWorkload(b_options);
    EXPECT_NE(a.apps[0].phases[0].cpuTime1,
              b.apps[0].phases[0].cpuTime1);
}

TEST(Synthetic, StructureIsSetupComputesTeardown)
{
    SyntheticOptions options;
    options.numApps = 8;
    options.minComputePhases = 2;
    options.maxComputePhases = 3;
    Workload w = makeSyntheticWorkload(options);
    ASSERT_EQ(w.apps.size(), 8u);
    for (const Application &app : w.apps) {
        ASSERT_GE(app.phases.size(), 4u); // setup + 2 computes + td.
        ASSERT_LE(app.phases.size(), 5u);
        EXPECT_EQ(app.phases.front().kind, PhaseKind::Sequential);
        EXPECT_EQ(app.phases.back().kind, PhaseKind::Sequential);
        for (size_t p = 1; p + 1 < app.phases.size(); ++p)
            EXPECT_EQ(app.phases[p].kind, PhaseKind::Compute);
        EXPECT_TRUE(app.isChain());
    }
}

TEST(Synthetic, ValuesWithinConfiguredRanges)
{
    SyntheticOptions options;
    options.numApps = 20;
    options.seed = 3;
    Workload w = makeSyntheticWorkload(options);
    for (const Application &app : w.apps) {
        for (const PhaseProfile &phase : app.phases) {
            if (phase.kind == PhaseKind::Sequential) {
                EXPECT_GE(phase.cpuTime1, options.minSetupS);
                EXPECT_LE(phase.cpuTime1, options.maxSetupS);
            } else {
                EXPECT_GE(phase.cpuTime1, options.minComputeCpuS);
                EXPECT_LE(phase.cpuTime1, options.maxComputeCpuS);
                EXPECT_TRUE(phase.gpuCompatible);
                double speedup = phase.cpuTime1 / phase.gpuTime98;
                EXPECT_GE(speedup, options.minGpuSpeedup98 * 0.999);
                EXPECT_LE(speedup, options.maxGpuSpeedup98 * 1.001);
                EXPECT_GE(phase.gpuBwBase, options.minBw98);
                EXPECT_LE(phase.gpuBwBase, options.maxBw98);
                EXPECT_LE(phase.timeLaw.b, -0.5);
                EXPECT_GE(phase.timeLaw.b, -1.0);
            }
        }
    }
}

TEST(Synthetic, DsaTargetsAreUniquePerApp)
{
    SyntheticOptions options;
    options.numApps = 30;
    options.dsaTargetFraction = 1.0;
    Workload w = makeSyntheticWorkload(options);
    for (size_t a = 0; a < w.apps.size(); ++a) {
        bool found = false;
        for (const PhaseProfile &phase : w.apps[a].phases) {
            if (phase.dsaTarget >= 0) {
                EXPECT_EQ(phase.dsaTarget, static_cast<int>(a));
                found = true;
            }
        }
        EXPECT_TRUE(found);
    }
}

TEST(Synthetic, ZeroDsaFractionMeansNoTargets)
{
    SyntheticOptions options;
    options.dsaTargetFraction = 0.0;
    Workload w = makeSyntheticWorkload(options);
    for (const Application &app : w.apps)
        for (const PhaseProfile &phase : app.phases)
            EXPECT_EQ(phase.dsaTarget, -1);
}

} // anonymous namespace
} // namespace workload
} // namespace hilp
