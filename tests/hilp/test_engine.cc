/** @file End-to-end tests for the HILP engine (Section II worked
 * example, adaptive resolution, schedule lifting). */

#include <gtest/gtest.h>

#include "cp/solver.hh"
#include "hilp/engine.hh"
#include "hilp/showcase.hh"

namespace hilp {
namespace {

EngineOptions
exampleOptions()
{
    EngineOptions options;
    options.initialStepS = 1.0;
    options.horizonSteps = 64;
    options.maxRefinements = 0;
    options.solver.targetGap = 0.0;
    return options;
}

TEST(Engine, Figure2OptimalSchedule)
{
    // The paper's Section II example: optimal makespan 7 s (2.4x
    // over the naive 17 s), average WLP 1.7.
    EvalResult result = evaluate(makeTwoAppExample(),
                                 exampleOptions());
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.status, cp::SolveStatus::Optimal);
    EXPECT_DOUBLE_EQ(result.makespanS, 7.0);
    EXPECT_DOUBLE_EQ(result.lowerBoundS, 7.0);
    EXPECT_NEAR(result.averageWlp, 12.0 / 7.0, 1e-9);
    EXPECT_NEAR(kTwoAppNaiveCpuS / result.makespanS, 2.43, 0.01);
}

TEST(Engine, Figure3PowerConstrainedSchedule)
{
    // Under a 3 W budget the GPU cannot overlap with anything; the
    // paper's optimal makespan is 9 s with power capped at 3 W.
    ProblemSpec spec = makeTwoAppExample();
    spec.powerBudgetW = 3.0;
    EvalResult result = evaluate(spec, exampleOptions());
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.status, cp::SolveStatus::Optimal);
    EXPECT_DOUBLE_EQ(result.makespanS, 9.0);
    for (double watts : result.schedule.powerTrace())
        EXPECT_LE(watts, 3.0 + 1e-9);
}

TEST(Engine, ScheduleIsInternallyConsistent)
{
    EvalResult result = evaluate(makeTwoAppExample(),
                                 exampleOptions());
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.schedule.phases.size(), 6u);
    EXPECT_DOUBLE_EQ(result.schedule.makespanS(), result.makespanS);
    for (const ScheduledPhase &phase : result.schedule.phases) {
        EXPECT_GE(phase.startS, 0.0);
        EXPECT_DOUBLE_EQ(phase.startS,
                         phase.startStep * result.stepS);
        EXPECT_DOUBLE_EQ(phase.durationS,
                         phase.durationSteps * result.stepS);
    }
}

TEST(Engine, RefinementIncreasesResolution)
{
    // At 4 s steps the example finishes in ~2-3 steps, far below a
    // refinement threshold of 16, so the engine must refine.
    EngineOptions options;
    options.initialStepS = 4.0;
    options.horizonSteps = 64;
    options.refineThreshold = 16;
    options.refineFactor = 2.0;
    options.maxRefinements = 3;
    options.solver.targetGap = 0.0;
    EvalResult result = evaluate(makeTwoAppExample(), options);
    ASSERT_TRUE(result.ok);
    EXPECT_LT(result.stepS, 4.0);
    EXPECT_GT(result.refinements, 0);
    // Refined resolution recovers the exact 7 s optimum.
    EXPECT_LE(result.makespanS, 8.0);
}

TEST(Engine, NoRefinementWhenThresholdMet)
{
    EngineOptions options = exampleOptions();
    options.maxRefinements = 5;
    options.refineThreshold = 4; // 7 steps >= 4: no refinement.
    EvalResult result = evaluate(makeTwoAppExample(), options);
    ASSERT_TRUE(result.ok);
    EXPECT_DOUBLE_EQ(result.stepS, 1.0);
    EXPECT_EQ(result.refinements, 0);
}

TEST(Engine, CoarseningRecoversFromTightHorizon)
{
    // With 1 s steps and a 6-step horizon the example cannot fit
    // (optimum 7); the engine must coarsen instead of failing.
    EngineOptions options;
    options.initialStepS = 1.0;
    options.horizonSteps = 6;
    options.refineFactor = 2.0;
    options.maxRefinements = 0;
    options.maxCoarsenings = 4;
    options.solver.targetGap = 0.0;
    EvalResult result = evaluate(makeTwoAppExample(), options);
    ASSERT_TRUE(result.ok);
    EXPECT_GT(result.stepS, 1.0);
    EXPECT_LT(result.refinements, 0);
}

TEST(Engine, UnschedulableProblemReportsFailure)
{
    ProblemSpec spec = makeTwoAppExample();
    EngineOptions options;
    options.initialStepS = 0.25;
    options.horizonSteps = 4; // 1 s horizon even after coarsening...
    options.maxCoarsenings = 0;
    EvalResult result = evaluate(spec, options);
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.nearOptimal());
}

TEST(Engine, ExpiredPointDeadlineDegradesGracefully)
{
    // A deadline that is already over when the evaluation starts:
    // the engine must still hand back a certified schedule (the
    // budget-capped incumbent), flagged degraded, never a hard
    // failure. The power-constrained Figure 3 instance guarantees a
    // positive certified gap (the lower bounds are power-blind), so
    // the cut is always observable.
    ProblemSpec spec = makeTwoAppExample();
    spec.powerBudgetW = 3.0;
    EngineOptions options = exampleOptions();
    options.pointTimeoutS = 1e-9;
    EvalResult result = evaluate(spec, options);
    ASSERT_TRUE(result.ok);
    EXPECT_TRUE(result.degraded);
    // The degraded result keeps the contract: a real schedule with
    // a certified optimality gap against a true lower bound.
    EXPECT_GT(result.makespanS, 0.0);
    EXPECT_GE(result.gap, 0.0);
    EXPECT_LT(result.gap, 1.0);
    EXPECT_LE(result.lowerBoundS, result.makespanS + 1e-9);
    EXPECT_FALSE(result.schedule.phases.empty());
}

TEST(Engine, LateCoarseningRunsTheLadder)
{
    // The tight horizon of CoarseningRecoversFromTightHorizon with a
    // deadline already over: the late point climbs the same
    // coarsening ladder, each rung an ordinary solve, and its result
    // carries the rung's own status and certified bound.
    EngineOptions options;
    options.initialStepS = 1.0;
    options.horizonSteps = 6;
    options.refineFactor = 2.0;
    options.maxRefinements = 0;
    options.maxCoarsenings = 4;
    options.solver.targetGap = 0.0;
    options.pointTimeoutS = 1e-9;

    // With no power budget the 2 s rung proves its 10 s schedule
    // optimal, just as it does with no deadline.
    EvalResult free_power = evaluate(makeTwoAppExample(), options);
    ASSERT_TRUE(free_power.ok);
    EXPECT_EQ(free_power.status, cp::SolveStatus::Optimal);
    EXPECT_EQ(free_power.refinements, -1);
    EXPECT_EQ(free_power.solves, 2);
    EXPECT_FALSE(free_power.degraded);
    EXPECT_DOUBLE_EQ(free_power.stepS, 2.0);
    EXPECT_DOUBLE_EQ(free_power.makespanS, 10.0);
    EXPECT_DOUBLE_EQ(free_power.lowerBoundS, 10.0);
    EngineOptions untimed = options;
    untimed.pointTimeoutS = 0.0;
    EvalResult reference = evaluate(makeTwoAppExample(), untimed);
    EXPECT_EQ(reference.status, free_power.status);
    EXPECT_DOUBLE_EQ(reference.makespanS, free_power.makespanS);

    // Under 3 W the power-blind bounds stay at 10 s, so the 12 s
    // greedy schedule misses the target gap: degraded, not failed.
    ProblemSpec capped = makeTwoAppExample();
    capped.powerBudgetW = 3.0;
    EvalResult late = evaluate(capped, options);
    ASSERT_TRUE(late.ok);
    EXPECT_EQ(late.refinements, -1);
    EXPECT_DOUBLE_EQ(late.makespanS, 12.0);
    EXPECT_DOUBLE_EQ(late.lowerBoundS, 10.0);
    EXPECT_TRUE(late.degraded);
}

TEST(Engine, LatePointOverTheHorizonIsInfeasible)
{
    // No coarsening rung: the 6 s horizon is below the example's
    // certified 7 s bound, so the point is infeasible whether or not
    // its deadline has passed, after the same one-node search.
    EngineOptions options;
    options.initialStepS = 1.0;
    options.horizonSteps = 6;
    options.maxRefinements = 0;
    options.maxCoarsenings = 0;
    options.solver.targetGap = 0.0;
    EvalResult untimed = evaluate(makeTwoAppExample(), options);
    EXPECT_FALSE(untimed.ok);
    EXPECT_EQ(untimed.status, cp::SolveStatus::Infeasible);

    options.pointTimeoutS = 1e-9;
    EvalResult late = evaluate(makeTwoAppExample(), options);
    EXPECT_FALSE(late.ok);
    EXPECT_EQ(late.status, cp::SolveStatus::Infeasible);
    EXPECT_EQ(late.solves, untimed.solves);
    EXPECT_EQ(late.totalNodes, untimed.totalNodes);
}

TEST(Engine, GenerousDeadlineDoesNotDegrade)
{
    EngineOptions options = exampleOptions();
    options.pointTimeoutS = 3600.0;
    EvalResult result = evaluate(makeTwoAppExample(), options);
    ASSERT_TRUE(result.ok);
    EXPECT_FALSE(result.degraded);
    EXPECT_EQ(result.status, cp::SolveStatus::Optimal);
    EXPECT_DOUBLE_EQ(result.makespanS, 7.0);
}

TEST(Engine, ValidationAndExplorationPresets)
{
    EngineOptions validation = EngineOptions::validationMode();
    EXPECT_DOUBLE_EQ(validation.initialStepS, 2.0);
    EXPECT_EQ(validation.horizonSteps, 1000);
    EXPECT_EQ(validation.refineThreshold, 200);
    EngineOptions exploration = EngineOptions::explorationMode();
    EXPECT_DOUBLE_EQ(exploration.initialStepS, 10.0);
    EXPECT_EQ(exploration.horizonSteps, 200);
    EXPECT_EQ(exploration.refineThreshold, 40);
}

TEST(Engine, NearOptimalPredicate)
{
    EvalResult result;
    result.ok = true;
    result.gap = 0.05;
    EXPECT_TRUE(result.nearOptimal());
    result.gap = 0.15;
    EXPECT_FALSE(result.nearOptimal());
    result.ok = false;
    result.gap = 0.0;
    EXPECT_FALSE(result.nearOptimal());
}

TEST(Engine, SdaBaselineSolves)
{
    EngineOptions options = exampleOptions();
    options.horizonSteps = 128;
    EvalResult result =
        evaluate(makeSdaProblem(SdaVariant::Baseline, 1), options);
    ASSERT_TRUE(result.ok);
    // One sample: DS (4) -> DF (2) -> computes -> PP; critical path
    // is at least 4 + 2 + 2 + 1 = 9 s on the baseline SoC.
    EXPECT_GE(result.makespanS, 9.0);
}

TEST(Engine, SdaVariantsBeatBaseline)
{
    EngineOptions options = exampleOptions();
    options.horizonSteps = 128;
    options.solver.targetGap = 0.0;
    double base =
        evaluate(makeSdaProblem(SdaVariant::Baseline, 2), options)
            .makespanS;
    double fast_cpu =
        evaluate(makeSdaProblem(SdaVariant::FastCpu, 2), options)
            .makespanS;
    double big_gpu =
        evaluate(makeSdaProblem(SdaVariant::BigGpu, 2), options)
            .makespanS;
    EXPECT_LT(fast_cpu, base);
    EXPECT_LT(big_gpu, base);
}

} // anonymous namespace
} // namespace hilp
