/**
 * @file
 * Cross-module property tests: invariants that must hold for any
 * workload/SoC combination, exercised over seeded synthetic
 * workloads and a grid of SoC shapes.
 */

#include <gtest/gtest.h>

#include "baselines/gables.hh"
#include "baselines/multiamdahl.hh"
#include "dse/explore.hh"
#include "hilp/builder.hh"
#include "hilp/engine.hh"
#include "oracles/synthetic.hh"
#include "workload/rodinia.hh"

namespace hilp {
namespace {

workload::Workload
syntheticWorkload(uint64_t seed, int apps = 4)
{
    workload::SyntheticOptions options;
    options.numApps = apps;
    options.seed = seed;
    return makeSyntheticWorkload(options);
}

arch::SocConfig
mediumSoc()
{
    arch::SocConfig soc;
    soc.cpuCores = 2;
    soc.gpuSms = 16;
    return soc;
}

EngineOptions
fastEngine()
{
    EngineOptions options = EngineOptions::explorationMode();
    options.solver.maxSeconds = 2.0;
    options.solver.maxNodes = 50000;
    return options;
}

/** Per-seed property bundle over synthetic workloads. */
class SyntheticProperties : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SyntheticProperties, WlpExtremesBracketHilp)
{
    workload::Workload wl = syntheticWorkload(GetParam());
    ProblemSpec spec =
        buildProblem(wl, mediumSoc(), arch::Constraints{});
    ASSERT_EQ(spec.validate(), "");

    baselines::MaResult ma = baselines::evaluateMultiAmdahl(spec);
    EvalResult hilp = evaluate(spec, fastEngine());
    EvalResult gables = baselines::evaluateGables(spec, fastEngine());
    ASSERT_TRUE(ma.ok);
    ASSERT_TRUE(hilp.ok);
    ASSERT_TRUE(gables.ok);

    // MA serializes everything: it can never beat HILP by more than
    // HILP's discretization rounding (one step per phase).
    double slack = hilp.stepS * spec.numPhases();
    EXPECT_GE(ma.makespanS + slack, hilp.makespanS);
    // Gables relaxes HILP (drops dependencies and power): it cannot
    // be slower, modulo its own rounding slack.
    EXPECT_LE(gables.makespanS,
              hilp.makespanS + gables.stepS * spec.numPhases());
    // WLP ordering: 1 = MA <= HILP <= Gables (+ small tolerance).
    EXPECT_GE(hilp.averageWlp, 1.0 - 1e-9);
    EXPECT_GE(gables.averageWlp, hilp.averageWlp - 0.35);
}

TEST_P(SyntheticProperties, LowerBoundNeverExceedsMakespan)
{
    workload::Workload wl = syntheticWorkload(GetParam());
    ProblemSpec spec =
        buildProblem(wl, mediumSoc(), arch::Constraints{});
    EvalResult result = evaluate(spec, fastEngine());
    ASSERT_TRUE(result.ok);
    EXPECT_LE(result.lowerBoundS, result.makespanS + 1e-9);
    EXPECT_GE(result.gap, 0.0);
    EXPECT_LE(result.gap, 1.0);
}

TEST_P(SyntheticProperties, SpeedupNeverExceedsLowerBoundPotential)
{
    workload::Workload wl = syntheticWorkload(GetParam());
    ProblemSpec spec =
        buildProblem(wl, mediumSoc(), arch::Constraints{});
    EvalResult result = evaluate(spec, fastEngine());
    ASSERT_TRUE(result.ok);
    // The makespan can never beat the single longest phase executed
    // on its fastest unit.
    double longest_min_phase = 0.0;
    for (const AppSpec &app : spec.apps) {
        for (const PhaseSpec &phase : app.phases) {
            double best = 1e300;
            for (const UnitOption &option : phase.options)
                best = std::min(best, option.timeS);
            longest_min_phase = std::max(longest_min_phase, best);
        }
    }
    EXPECT_GE(result.makespanS + 1e-9, longest_min_phase);
}

TEST_P(SyntheticProperties, MorePowerNeverHurts)
{
    workload::Workload wl = syntheticWorkload(GetParam());
    arch::SocConfig soc = mediumSoc();
    arch::Constraints tight;
    tight.powerBudgetW = 40.0;
    arch::Constraints loose;
    loose.powerBudgetW = 600.0;
    ProblemSpec tight_spec = buildProblem(wl, soc, tight);
    if (!tight_spec.validate().empty())
        GTEST_SKIP() << "workload unschedulable at 40 W";
    EvalResult constrained = evaluate(tight_spec, fastEngine());
    EvalResult unconstrained =
        evaluate(buildProblem(wl, soc, loose), fastEngine());
    ASSERT_TRUE(constrained.ok);
    ASSERT_TRUE(unconstrained.ok);
    // Allow heuristic noise of one coarse step in each direction.
    double slack =
        std::max(constrained.stepS, unconstrained.stepS) * 2.0;
    EXPECT_LE(unconstrained.lowerBoundS,
              constrained.makespanS + slack);
}

TEST_P(SyntheticProperties, GablesWlpIsHighestOrClose)
{
    workload::Workload wl = syntheticWorkload(GetParam());
    ProblemSpec spec =
        buildProblem(wl, mediumSoc(), arch::Constraints{});
    baselines::MaResult ma = baselines::evaluateMultiAmdahl(spec);
    ASSERT_TRUE(ma.ok);
    EXPECT_DOUBLE_EQ(ma.averageWlp(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticProperties,
                         ::testing::Range<uint64_t>(1, 9));

/** SoC-shape grid properties on the Default Rodinia workload. */
class SocShapeProperties
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(SocShapeProperties, SchedulesAreProducedAndBounded)
{
    auto [cpus, sms] = GetParam();
    workload::Workload wl =
        workload::makeWorkload(workload::Variant::Default);
    arch::SocConfig soc;
    soc.cpuCores = cpus;
    soc.gpuSms = sms;
    ProblemSpec spec = buildProblem(wl, soc, arch::Constraints{});
    EvalResult result = evaluate(spec, fastEngine());
    ASSERT_TRUE(result.ok);
    EXPECT_GT(result.makespanS, 0.0);
    EXPECT_LE(result.lowerBoundS, result.makespanS + 1e-9);
    EXPECT_GE(result.averageWlp, 1.0 - 1e-9);
    EXPECT_LE(result.averageWlp, 30.0);
}

TEST_P(SocShapeProperties, AcceleratorsNeverSlowTheWorkloadDown)
{
    auto [cpus, sms] = GetParam();
    if (sms == 0)
        GTEST_SKIP();
    workload::Workload wl =
        workload::makeWorkload(workload::Variant::Default);
    arch::SocConfig with_gpu;
    with_gpu.cpuCores = cpus;
    with_gpu.gpuSms = sms;
    arch::SocConfig without_gpu;
    without_gpu.cpuCores = cpus;
    EvalResult with_result = evaluate(
        buildProblem(wl, with_gpu, arch::Constraints{}), fastEngine());
    EvalResult without_result =
        evaluate(buildProblem(wl, without_gpu, arch::Constraints{}),
                 fastEngine());
    ASSERT_TRUE(with_result.ok);
    ASSERT_TRUE(without_result.ok);
    double slack = (with_result.stepS + without_result.stepS) * 4.0;
    EXPECT_LE(with_result.makespanS,
              without_result.makespanS + slack);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SocShapeProperties,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(0, 16, 64)));

/**
 * Amdahl saturation property (Figure 5a's mechanism): on the Default
 * workload with a 16-SM GPU, going from 1 to 4 CPU cores must
 * improve performance noticeably.
 */
TEST(ValidationProperties, CpuCoresUnlockAcceleratorUtilization)
{
    workload::Workload wl =
        workload::makeWorkload(workload::Variant::Default);
    double makespans[2];
    int idx = 0;
    for (int cpus : {1, 4}) {
        arch::SocConfig soc;
        soc.cpuCores = cpus;
        soc.gpuSms = 16;
        EvalResult result = evaluate(
            buildProblem(wl, soc, arch::Constraints{}), fastEngine());
        ASSERT_TRUE(result.ok);
        makespans[idx++] = result.makespanS;
    }
    EXPECT_LT(makespans[1], makespans[0] * 0.85);
}

/** Memory-wall property (Figure 5b's mechanism). */
TEST(ValidationProperties, BandwidthCapDegradesPerformance)
{
    workload::Workload wl =
        workload::makeWorkload(workload::Variant::Optimized);
    arch::SocConfig soc;
    soc.cpuCores = 4;
    soc.gpuSms = 64;
    double makespans[2];
    int idx = 0;
    for (double bw : {50.0, 800.0}) {
        arch::Constraints constraints;
        constraints.memory.bandwidthGBs = bw;
        EvalResult result = evaluate(buildProblem(wl, soc, constraints),
                                     fastEngine());
        ASSERT_TRUE(result.ok);
        makespans[idx++] = result.makespanS;
    }
    EXPECT_GT(makespans[0], makespans[1]);
}

/** Dark-silicon property (Figure 5c's mechanism). */
TEST(ValidationProperties, PowerCapDegradesPerformance)
{
    workload::Workload wl =
        workload::makeWorkload(workload::Variant::Optimized);
    arch::SocConfig soc;
    soc.cpuCores = 4;
    soc.gpuSms = 64;
    double makespans[2];
    int idx = 0;
    for (double watts : {50.0, 600.0}) {
        arch::Constraints constraints;
        constraints.powerBudgetW = watts;
        EvalResult result = evaluate(buildProblem(wl, soc, constraints),
                                     fastEngine());
        ASSERT_TRUE(result.ok);
        makespans[idx++] = result.makespanS;
    }
    EXPECT_GT(makespans[0], makespans[1]);
}

} // anonymous namespace
} // namespace hilp
