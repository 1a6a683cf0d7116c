/**
 * @file
 * Cross-validation properties: every schedule any component of HILP
 * produces must replay cleanly through the independent event-driven
 * simulator, and the baselines/analytic models must respect their
 * ordering relations.
 */

#include <gtest/gtest.h>

#include "baselines/gables.hh"
#include "baselines/multiamdahl.hh"
#include "hilp/builder.hh"
#include "hilp/discretize.hh"
#include "hilp/engine.hh"
#include "hilp/showcase.hh"
#include "oracles/synthetic.hh"
#include "sim/replay.hh"
#include "workload/rodinia.hh"

namespace hilp {
namespace {

EngineOptions
fastEngine()
{
    EngineOptions options = EngineOptions::explorationMode();
    options.solver.maxSeconds = 1.5;
    return options;
}

class ReplayProperties : public ::testing::TestWithParam<uint64_t>
{
  protected:
    ProblemSpec
    spec() const
    {
        workload::SyntheticOptions options;
        options.numApps = 4;
        options.seed = GetParam() * 131;
        workload::Workload wl = makeSyntheticWorkload(options);
        arch::SocConfig soc;
        soc.cpuCores = 2;
        soc.gpuSms = 16;
        arch::Constraints constraints;
        // Alternate constrained and unconstrained cases.
        if (GetParam() % 2 == 0)
            constraints.powerBudgetW = 60.0;
        return buildProblem(wl, soc, constraints);
    }
};

TEST_P(ReplayProperties, HilpSchedulesReplayCleanly)
{
    ProblemSpec problem = spec();
    if (!problem.validate().empty())
        GTEST_SKIP() << "unschedulable under the tight budget";
    EvalResult result = evaluate(problem, fastEngine());
    ASSERT_TRUE(result.ok);
    sim::SimResult replay = sim::replaySchedule(problem,
                                                result.schedule);
    EXPECT_TRUE(replay.ok) << replay.violation;
    EXPECT_NEAR(replay.makespanS, result.makespanS, 1e-6);
}

TEST_P(ReplayProperties, MultiAmdahlSchedulesReplayCleanly)
{
    ProblemSpec problem = spec();
    if (!problem.validate().empty())
        GTEST_SKIP();
    baselines::MaResult ma = baselines::evaluateMultiAmdahl(problem);
    ASSERT_TRUE(ma.ok);
    sim::SimResult replay = sim::replaySchedule(problem, ma.schedule);
    EXPECT_TRUE(replay.ok) << replay.violation;
}

TEST_P(ReplayProperties, OnlineSchedulerSchedulesReplayCleanly)
{
    ProblemSpec problem = spec();
    if (!problem.validate().empty())
        GTEST_SKIP();
    sim::SimResult online = sim::runOnlineScheduler(problem);
    ASSERT_TRUE(online.ok) << online.violation;
    sim::SimResult replay =
        sim::replaySchedule(problem, online.schedule);
    EXPECT_TRUE(replay.ok) << replay.violation;
}

TEST_P(ReplayProperties, AnalyticGablesLowerBoundsPackingGables)
{
    ProblemSpec problem = spec();
    if (!problem.validate().empty())
        GTEST_SKIP();
    double analytic = baselines::evaluateGablesAnalyticS(problem);
    EvalResult packing =
        baselines::evaluateGables(problem, fastEngine());
    ASSERT_TRUE(packing.ok);
    ASSERT_GT(analytic, 0.0);
    // The fractional roofline can never exceed a real packing (plus
    // the packing's discretization slack).
    double slack = packing.stepS * problem.numPhases();
    EXPECT_LE(analytic, packing.makespanS + slack + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayProperties,
                         ::testing::Range<uint64_t>(1, 7));

TEST(AnalyticGables, TwoAppExampleRoofline)
{
    // Fractional relaxation of the dependency-free example: the CPU
    // pool alone holds 4 s of setup/teardown work, and fractional
    // splitting lets every compute phase ride the accelerators, so
    // the roofline lands between 4 and the 5 s packing.
    ProblemSpec spec = makeTwoAppExample();
    double analytic = baselines::evaluateGablesAnalyticS(spec);
    EXPECT_GE(analytic, 4.0 - 1e-6);
    EXPECT_LE(analytic, 5.0 + 1e-6);
}

TEST(DescribeModel, MentionsEveryComponent)
{
    ProblemSpec spec = makeTwoAppExample();
    DiscretizedProblem problem = discretize(spec, 1.0, 64);
    std::string text = cp::describeModel(problem.model);
    EXPECT_NE(text.find("6 tasks"), std::string::npos);
    EXPECT_NE(text.find("GPU"), std::string::npos);
    EXPECT_NE(text.find("cpu-cores"), std::string::npos);
    EXPECT_NE(text.find("-> task"), std::string::npos);
}

} // anonymous namespace
} // namespace hilp
