/** @file Tests for the exhaustive reference solver, including
 * randomized cross-checks of the main solver with start lags and of
 * the LP lower bound. */

#include <gtest/gtest.h>

#include <tuple>

#include "oracles/exhaustive.hh"
#include "cp/bounds.hh"
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
 * A tiny random model that mixes groups, a resource, precedence and
 * an initiation interval. With over_capacity, a task's second mode
 * uses 3.0 of the 2.0 capacity half the time, so it can never run.
 */
Model
oracleModel(uint64_t seed, bool over_capacity)
{
    Rng rng(seed * 977);
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
            if (over_capacity && mo > 0 && rng.chance(0.5))
                mode.usage = {3.0};
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
    return m;
}

/**
 * Randomized oracle check including start lags: the main solver's
 * proven optimum must match exhaustive enumeration on tiny models.
 */
class ExhaustiveOracle : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ExhaustiveOracle, SolverMatches)
{
    Model m = oracleModel(GetParam(), false);
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

/**
 * The LP bound against the exhaustive optimum, on the oracle's
 * instances and on a second seed range with modes over capacity
 * (which get no LP column): each combinatorial bound <= the LP bound
 * <= the optimum. Param: seed, over_capacity.
 */
class ExhaustiveLpBound
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>>
{};

TEST_P(ExhaustiveLpBound, BetweenCombinatorialBoundsAndOptimum)
{
    auto [seed, over_capacity] = GetParam();
    Model m = oracleModel(seed, over_capacity);
    ExhaustiveResult oracle = solveExhaustively(m);
    ASSERT_TRUE(oracle.complete);
    if (!oracle.feasible)
        return; // No optimum to bound.

    LowerBounds lb = computeLowerBounds(m, true);
    EXPECT_LE(lb.criticalPath, lb.lpRelaxation);
    EXPECT_LE(lb.groupLoad, lb.lpRelaxation);
    EXPECT_LE(lb.resourceEnergy, lb.lpRelaxation);
    EXPECT_LE(lb.lpRelaxation, oracle.optimum);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, ExhaustiveLpBound,
    ::testing::Combine(::testing::Range<uint64_t>(1, 25),
                       ::testing::Values(false)));
INSTANTIATE_TEST_SUITE_P(
    OverCapacity, ExhaustiveLpBound,
    ::testing::Combine(::testing::Range<uint64_t>(101, 125),
                       ::testing::Values(true)));

} // anonymous namespace
} // namespace cp
} // namespace hilp
