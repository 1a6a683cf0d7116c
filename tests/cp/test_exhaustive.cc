/** @file Tests for the exhaustive reference solver, including a
 * randomized cross-check of the main solver with start lags. */

#include <gtest/gtest.h>

#include "oracles/exhaustive.hh"
#include "cp/solver.hh"
#include "support/random.hh"

namespace hilp {
namespace cp {
namespace {

TEST(Exhaustive, EmptyModelIsTriviallyOptimal)
{
    Model m;
    m.setHorizon(4);
    ExhaustiveResult r = solveExhaustively(m);
    EXPECT_TRUE(r.complete);
    EXPECT_TRUE(r.feasible);
    EXPECT_EQ(r.optimum, 0);
}

TEST(Exhaustive, SpaceSizeIsProductOfModeTimesHorizon)
{
    Model m;
    Task a;
    a.modes.push_back({kNoGroup, 1, {}});
    a.modes.push_back({kNoGroup, 2, {}});
    m.addTask(a);
    Task b;
    b.modes.push_back({kNoGroup, 1, {}});
    m.addTask(b);
    m.setHorizon(5);
    EXPECT_EQ(exhaustiveSpaceSize(m), 2u * 5u * 1u * 5u);
}

TEST(Exhaustive, FindsChainOptimum)
{
    Model m;
    for (Time d : {2, 3}) {
        Task t;
        t.modes.push_back({kNoGroup, d, {}});
        m.addTask(t);
    }
    m.addPrecedence(0, 1);
    m.setHorizon(8);
    ExhaustiveResult r = solveExhaustively(m);
    ASSERT_TRUE(r.complete);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.optimum, 5);
    EXPECT_EQ(checkSchedule(m, r.best), "");
}

TEST(Exhaustive, DetectsInfeasibility)
{
    Model m;
    Task t;
    t.modes.push_back({kNoGroup, 9, {}});
    m.addTask(t);
    m.setHorizon(5);
    ExhaustiveResult r = solveExhaustively(m);
    EXPECT_TRUE(r.complete);
    EXPECT_FALSE(r.feasible);
    EXPECT_EQ(r.optimum, -1);
}

TEST(Exhaustive, CandidateBudgetAborts)
{
    Model m;
    for (int i = 0; i < 3; ++i) {
        Task t;
        t.modes.push_back({kNoGroup, 1, {}});
        m.addTask(t);
    }
    m.setHorizon(10);
    ExhaustiveResult r = solveExhaustively(m, 10);
    EXPECT_FALSE(r.complete);
    EXPECT_LE(r.candidates, 11u);
}

/**
 * Randomized oracle check including start lags: the main solver's
 * proven optimum must match exhaustive enumeration on tiny models
 * that mix groups, resources, precedence, and initiation intervals.
 */
class ExhaustiveOracle : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ExhaustiveOracle, SolverMatches)
{
    Rng rng(GetParam() * 977);
    Model m;
    m.addResource(2.0, "res");
    int g = m.addGroup("G");
    const int n = 3;
    for (int i = 0; i < n; ++i) {
        Task t;
        int modes = 1 + static_cast<int>(rng.uniformInt(0, 1));
        for (int mo = 0; mo < modes; ++mo) {
            Mode mode;
            mode.group = rng.chance(0.4) ? g : kNoGroup;
            mode.duration = static_cast<Time>(rng.uniformInt(1, 3));
            mode.usage = {rng.chance(0.5) ? 1.0 : 2.0};
            t.modes.push_back(mode);
        }
        m.addTask(t);
    }
    if (rng.chance(0.5))
        m.addPrecedence(0, 1);
    if (rng.chance(0.5))
        m.addStartLag(0, 2,
                      static_cast<Time>(rng.uniformInt(0, 4)));
    m.setHorizon(6);

    ExhaustiveResult oracle = solveExhaustively(m);
    ASSERT_TRUE(oracle.complete);

    SolverOptions options;
    options.targetGap = 0.0;
    options.maxSeconds = 20.0;
    Result solved = Solver(options).solve(m);
    if (!oracle.feasible) {
        EXPECT_EQ(solved.status, SolveStatus::Infeasible);
    } else {
        ASSERT_TRUE(solved.hasSchedule());
        EXPECT_EQ(solved.status, SolveStatus::Optimal);
        EXPECT_EQ(solved.makespan, oracle.optimum);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ExhaustiveOracle,
                         ::testing::Range<uint64_t>(1, 25));

} // anonymous namespace
} // namespace cp
} // namespace hilp
