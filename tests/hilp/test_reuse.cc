/**
 * @file
 * Tests of the cross-instance solver-reuse layer: problem
 * fingerprints, the solve memo, schedule transfer between similar
 * problems, and the reuse-aware evaluate() entry point.
 */

#include <gtest/gtest.h>

#include "cp/model.hh"
#include "hilp/discretize.hh"
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

TEST(Fingerprint, StableAcrossCallsAndCopies)
{
    ProblemSpec spec = makeTwoAppExample();
    ProblemSpec copy = spec;
    EXPECT_EQ(spec.fingerprint(), spec.fingerprint());
    EXPECT_EQ(spec.fingerprint(), copy.fingerprint());
}

TEST(Fingerprint, IgnoresTheSpecName)
{
    ProblemSpec a = makeTwoAppExample();
    ProblemSpec b = a;
    b.name = "same instance, different label";
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(Fingerprint, SensitiveToEveryMatrixEntry)
{
    ProblemSpec base = makeTwoAppExample();
    uint64_t reference = base.fingerprint();

    ProblemSpec changed = base;
    changed.apps[0].phases[0].options[0].timeS += 0.5;
    EXPECT_NE(changed.fingerprint(), reference);

    changed = base;
    changed.apps[0].phases[0].options[0].powerW += 1.0;
    EXPECT_NE(changed.fingerprint(), reference);

    changed = base;
    changed.powerBudgetW = 3.0;
    EXPECT_NE(changed.fingerprint(), reference);

    changed = base;
    changed.cpuCores += 1.0;
    EXPECT_NE(changed.fingerprint(), reference);

    changed = base;
    changed.deviceNames.push_back("NPU");
    EXPECT_NE(changed.fingerprint(), reference);
}

TEST(Fingerprint, ImplicitChainEqualsExplicitChain)
{
    ProblemSpec implicit = makeTwoAppExample();
    ProblemSpec explicit_chain = implicit;
    for (AppSpec &app : explicit_chain.apps) {
        ASSERT_TRUE(app.deps.empty());
        for (int p = 0; p + 1 < static_cast<int>(app.phases.size());
             ++p)
            app.deps.emplace_back(p, p + 1);
    }
    EXPECT_EQ(implicit.fingerprint(), explicit_chain.fingerprint());
}

TEST(SolveMemo, MissThenHit)
{
    SolveMemo memo;
    EvalResult out;
    EXPECT_FALSE(memo.lookup(42, 0, &out));
    EXPECT_EQ(memo.misses(), 1);

    EvalResult stored;
    stored.ok = true;
    stored.makespanS = 7.0;
    stored.solves = 3;
    stored.totalNodes = 100;
    stored.totalSeconds = 1.5;
    stored.warmStarted = true;
    memo.insert(42, 0, stored);

    ASSERT_TRUE(memo.lookup(42, 0, &out));
    EXPECT_EQ(memo.hits(), 1);
    EXPECT_TRUE(out.ok);
    EXPECT_DOUBLE_EQ(out.makespanS, 7.0);
    EXPECT_TRUE(out.cacheHit);
    // A hit reports zero *new* effort.
    EXPECT_EQ(out.solves, 0);
    EXPECT_EQ(out.totalNodes, 0);
    EXPECT_DOUBLE_EQ(out.totalSeconds, 0.0);
    EXPECT_FALSE(out.warmStarted);
}

TEST(SolveMemo, EqualQualityKeepsTheFirstInsertion)
{
    SolveMemo memo;
    EvalResult first;
    first.makespanS = 1.0;
    EvalResult second;
    second.makespanS = 2.0;
    memo.insert(7, 0, first);
    memo.insert(7, 0, second);
    EvalResult out;
    ASSERT_TRUE(memo.lookup(7, 0, &out));
    EXPECT_DOUBLE_EQ(out.makespanS, 1.0);
}

TEST(SolveMemo, BetterResultReplacesAWorseEntry)
{
    // The old emplace-only insert pinned whatever landed first: a
    // timed-out wide-gap result would be served forever even after a
    // later evaluation solved the same instance to optimality.
    SolveMemo memo;
    EvalResult wide;
    wide.ok = true;
    wide.makespanS = 3.0;
    wide.gap = 0.4;
    memo.insert(7, 0, wide);

    EvalResult tight;
    tight.ok = true;
    tight.makespanS = 2.5;
    tight.gap = 0.01;
    memo.insert(7, 0, tight);

    EvalResult out;
    ASSERT_TRUE(memo.lookup(7, 0, &out));
    EXPECT_DOUBLE_EQ(out.makespanS, 2.5);
    EXPECT_DOUBLE_EQ(out.gap, 0.01);

    // And the replacement is one-way: a worse result never evicts a
    // better one.
    memo.insert(7, 0, wide);
    ASSERT_TRUE(memo.lookup(7, 0, &out));
    EXPECT_DOUBLE_EQ(out.gap, 0.01);
}

TEST(SolveMemo, SolvedResultReplacesAFailedEntry)
{
    SolveMemo memo;
    EvalResult failed;
    failed.ok = false;
    failed.status = cp::SolveStatus::NoSolution;
    memo.insert(9, 0, failed);

    EvalResult solved;
    solved.ok = true;
    solved.makespanS = 4.0;
    solved.gap = 0.5; // Even a wide-gap solve beats no solution.
    memo.insert(9, 0, solved);

    EvalResult out;
    ASSERT_TRUE(memo.lookup(9, 0, &out));
    EXPECT_TRUE(out.ok);
    EXPECT_DOUBLE_EQ(out.makespanS, 4.0);

    memo.insert(9, 0, failed);
    ASSERT_TRUE(memo.lookup(9, 0, &out));
    EXPECT_TRUE(out.ok);
}

TEST(SolveMemo, EqualRankTiebreakIsInsertOrderIndependent)
{
    // Two ok results of identical rank (gap, degraded) but different
    // makespans: the same entry must survive whichever insert order
    // the sweep's threads happen to race into. Before the content
    // tiebreak, equal-rank inserts kept whoever landed first, so a
    // parallel sweep's memo depended on thread interleaving.
    EvalResult a;
    a.ok = true;
    a.makespanS = 2.0;
    a.gap = 0.05;
    EvalResult b = a;
    b.makespanS = 2.5;

    EvalResult out;
    SolveMemo ab;
    ab.insert(3, 0, a);
    ab.insert(3, 0, b);
    ASSERT_TRUE(ab.lookup(3, 0, &out));
    EXPECT_DOUBLE_EQ(out.makespanS, 2.0);

    SolveMemo ba;
    ba.insert(3, 0, b);
    ba.insert(3, 0, a);
    ASSERT_TRUE(ba.lookup(3, 0, &out));
    EXPECT_DOUBLE_EQ(out.makespanS, 2.0);
}

TEST(SolveMemo, StructuralDigestBreaksExactScalarTies)
{
    // Same scalars, different schedules: the structural digest picks
    // one winner, the same one in both orders.
    EvalResult a;
    a.ok = true;
    a.makespanS = 2.0;
    a.gap = 0.05;
    EvalResult b = a;
    ScheduledPhase phase;
    phase.app = 0;
    phase.phase = 0;
    phase.option = 1;
    a.schedule.phases.push_back(phase);
    phase.option = 2;
    b.schedule.phases.push_back(phase);

    EvalResult ab_out;
    SolveMemo ab;
    ab.insert(5, 0, a);
    ab.insert(5, 0, b);
    ASSERT_TRUE(ab.lookup(5, 0, &ab_out));

    EvalResult ba_out;
    SolveMemo ba;
    ba.insert(5, 0, b);
    ba.insert(5, 0, a);
    ASSERT_TRUE(ba.lookup(5, 0, &ba_out));

    ASSERT_EQ(ab_out.schedule.phases.size(), 1u);
    ASSERT_EQ(ba_out.schedule.phases.size(), 1u);
    EXPECT_EQ(ab_out.schedule.phases[0].option,
              ba_out.schedule.phases[0].option);
}

TEST(SolveMemo, NonDegradedResultReplacesADegradedTwin)
{
    SolveMemo memo;
    EvalResult degraded;
    degraded.ok = true;
    degraded.makespanS = 2.0;
    degraded.gap = 0.05;
    degraded.degraded = true;
    memo.insert(11, 0, degraded);

    EvalResult clean = degraded;
    clean.degraded = false;
    memo.insert(11, 0, clean);

    EvalResult out;
    ASSERT_TRUE(memo.lookup(11, 0, &out));
    EXPECT_FALSE(out.degraded);

    memo.insert(11, 0, degraded);
    ASSERT_TRUE(memo.lookup(11, 0, &out));
    EXPECT_FALSE(out.degraded);
}

TEST(TransferSchedule, RoundTripsOntoTheSameProblem)
{
    ProblemSpec spec = makeTwoAppExample();
    EvalResult solved = evaluate(spec, exampleOptions());
    ASSERT_TRUE(solved.ok);

    DiscretizedProblem problem = discretize(spec, 1.0, 64);
    cp::ScheduleVec transferred;
    ASSERT_TRUE(transferSchedule(spec, problem, solved.schedule,
                                 &transferred));
    EXPECT_TRUE(cp::checkSchedule(problem.model, transferred).empty());
    // Re-placing an optimal schedule in its own start order cannot
    // make it longer.
    EXPECT_LE(transferred.makespan(problem.model) * problem.stepS,
              solved.makespanS + 1e-9);
}

TEST(TransferSchedule, AdaptsToAFasterNeighborConfig)
{
    // Solve the example, then transfer its schedule onto a variant
    // where every GPU option runs twice as fast - the shape of a
    // neighboring SoC with a larger GPU.
    ProblemSpec spec = makeTwoAppExample();
    EvalResult solved = evaluate(spec, exampleOptions());
    ASSERT_TRUE(solved.ok);

    ProblemSpec faster = spec;
    for (AppSpec &app : faster.apps)
        for (PhaseSpec &phase : app.phases)
            for (UnitOption &option : phase.options)
                if (option.device != kCpuPool)
                    option.timeS *= 0.5;

    DiscretizedProblem problem = discretize(faster, 1.0, 64);
    cp::ScheduleVec transferred;
    ASSERT_TRUE(transferSchedule(faster, problem, solved.schedule,
                                 &transferred));
    EXPECT_TRUE(cp::checkSchedule(problem.model, transferred).empty());
}

TEST(TransferSchedule, RepairsAHintOutOfDependencyOrder)
{
    ProblemSpec spec = makeTwoAppExample();
    EvalResult solved = evaluate(spec, exampleOptions());
    ASSERT_TRUE(solved.ok);

    // Start app 0's last phase before everything else, ahead of the
    // phases it depends on.
    Schedule broken = solved.schedule;
    const int last = static_cast<int>(spec.apps[0].phases.size()) - 1;
    ASSERT_GT(last, 0);
    ScheduledPhase *moved = nullptr;
    for (ScheduledPhase &phase : broken.phases)
        if (phase.app == 0 && phase.phase == last)
            moved = &phase;
    ASSERT_NE(moved, nullptr);
    moved->startS = -1.0;

    DiscretizedProblem problem = discretize(spec, 1.0, 64);
    cp::ScheduleVec transferred;
    ASSERT_TRUE(transferSchedule(spec, problem, broken, &transferred));
    EXPECT_TRUE(cp::checkSchedule(problem.model, transferred).empty());
    // The SGS places the moved phase once its dependencies are done,
    // which is where the solved schedule had it.
    EXPECT_EQ(transferred.makespan(problem.model), 7);
    EXPECT_DOUBLE_EQ(transferred.makespan(problem.model) * problem.stepS,
                     solved.makespanS);
}

TEST(TransferSchedule, RejectsMismatchedPhaseStructure)
{
    ProblemSpec spec = makeTwoAppExample();
    EvalResult solved = evaluate(spec, exampleOptions());
    ASSERT_TRUE(solved.ok);

    ProblemSpec different = spec;
    different.apps.pop_back();
    DiscretizedProblem problem = discretize(different, 1.0, 64);
    cp::ScheduleVec transferred;
    EXPECT_FALSE(transferSchedule(different, problem, solved.schedule,
                                  &transferred));
}

TEST(Evaluate, WarmStartNeverWorseThanCold)
{
    ProblemSpec spec = makeTwoAppExample();
    EvalResult cold = evaluate(spec, exampleOptions());
    ASSERT_TRUE(cold.ok);

    EvalReuse reuse;
    reuse.hint = &cold.schedule;
    EvalResult warm = evaluate(spec, exampleOptions(), reuse);
    ASSERT_TRUE(warm.ok);
    EXPECT_TRUE(warm.warmStarted);
    EXPECT_LE(warm.makespanS, cold.makespanS + 1e-9);
    EXPECT_DOUBLE_EQ(warm.gap, cold.gap);
}

TEST(Evaluate, ContinuousBoundHoldsAtEveryResolution)
{
    // The dominance oracle's input must lower-bound the makespan at
    // any discretization, coarse or fine.
    ProblemSpec spec = makeTwoAppExample();
    double bound = continuousLowerBoundS(spec);
    EXPECT_GT(bound, 0.0);
    for (double step : {0.5, 1.0, 4.0}) {
        EngineOptions options = exampleOptions();
        options.initialStepS = step;
        options.horizonSteps = 128;
        EvalResult result = evaluate(spec, options);
        ASSERT_TRUE(result.ok) << step;
        EXPECT_GE(result.makespanS, bound - 1e-9) << step;
    }
}

TEST(Evaluate, DominanceOracleStopsRefinement)
{
    // Force a refinement-eager setup, then tell the engine the point
    // is dominated: it must return the coarse result, flagged.
    ProblemSpec spec = makeTwoAppExample();
    EngineOptions options;
    options.initialStepS = 4.0;
    options.horizonSteps = 64;
    options.refineThreshold = 16;
    options.refineFactor = 2.0;
    options.maxRefinements = 3;
    options.solver.targetGap = 0.0;

    EvalReuse reuse;
    reuse.dominated = [](double) { return true; };
    EvalResult pruned = evaluate(spec, options, reuse);
    ASSERT_TRUE(pruned.ok);
    EXPECT_TRUE(pruned.prunedEarly);
    EXPECT_EQ(pruned.refinements, 0);
    EXPECT_DOUBLE_EQ(pruned.stepS, 4.0);

    // And with an oracle that says "not dominated", refinement runs.
    reuse.dominated = [](double) { return false; };
    EvalResult refined = evaluate(spec, options, reuse);
    ASSERT_TRUE(refined.ok);
    EXPECT_FALSE(refined.prunedEarly);
    EXPECT_GT(refined.refinements, 0);
}

} // anonymous namespace
} // namespace hilp
