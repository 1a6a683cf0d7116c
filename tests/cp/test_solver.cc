/**
 * @file
 * Solver tests, including an exhaustive brute-force oracle that
 * independently enumerates every (mode, start) assignment of small
 * instances and validates them with checkSchedule - a completely
 * separate code path from the branch-and-bound search.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cp/model.hh"
#include "cp/solver.hh"
#include "support/random.hh"

namespace hilp {
namespace cp {
namespace {

/**
 * Brute force: try every combination of modes and start times in
 * [0, horizon), checking full feasibility with checkSchedule.
 * Returns -1 when no feasible schedule exists.
 */
Time
bruteForceOptimum(const Model &m)
{
    const int n = m.numTasks();
    ScheduleVec schedule;
    schedule.tasks.assign(n, Assignment{});
    Time best = -1;

    // Odometer over (mode, start) per task.
    std::vector<int> mode(n, 0);
    std::vector<Time> start(n, 0);
    for (;;) {
        for (int t = 0; t < n; ++t)
            schedule.tasks[t] = {mode[t], start[t]};
        bool in_horizon = true;
        for (int t = 0; t < n && in_horizon; ++t)
            in_horizon = start[t] + m.task(t).modes[mode[t]].duration <=
                         m.horizon();
        if (in_horizon && checkSchedule(m, schedule).empty()) {
            Time makespan = schedule.makespan(m);
            if (best < 0 || makespan < best)
                best = makespan;
        }
        // Advance the odometer.
        int t = 0;
        for (; t < n; ++t) {
            if (++start[t] < m.horizon())
                break;
            start[t] = 0;
            if (++mode[t] <
                static_cast<int>(m.task(t).modes.size()))
                break;
            mode[t] = 0;
        }
        if (t == n)
            break;
    }
    return best;
}

SolverOptions
exactOptions()
{
    SolverOptions options;
    options.targetGap = 0.0;
    options.maxSeconds = 20.0;
    return options;
}

TEST(Solver, ChainIsExact)
{
    Model m;
    for (Time d : {2, 3, 1}) {
        Task t;
        t.modes.push_back({kNoGroup, d, {}});
        m.addTask(t);
    }
    m.addPrecedence(0, 1);
    m.addPrecedence(1, 2);
    m.setHorizon(8);
    Result r = Solver(exactOptions()).solve(m);
    EXPECT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.makespan, 6);
    EXPECT_EQ(r.lowerBound, 6);
    EXPECT_DOUBLE_EQ(r.gap(), 0.0);
}

TEST(Solver, PicksBestModeCombination)
{
    // Two tasks, each CPU (slow) or device (fast); one shared device.
    Model m;
    int g = m.addGroup("G");
    for (int i = 0; i < 2; ++i) {
        Task t;
        t.modes.push_back({kNoGroup, 5, {}});
        t.modes.push_back({g, 2, {}});
        m.addTask(t);
    }
    m.setHorizon(20);
    Result r = Solver(exactOptions()).solve(m);
    EXPECT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.makespan, 4); // serialize both on the device.
}

TEST(Solver, InfeasibleWithinHorizonIsProven)
{
    Model m;
    Task t;
    t.modes.push_back({kNoGroup, 10, {}});
    m.addTask(t);
    m.setHorizon(5);
    Result r = Solver(exactOptions()).solve(m);
    EXPECT_EQ(r.status, SolveStatus::Infeasible);
    EXPECT_FALSE(r.hasSchedule());
}

TEST(Solver, ResourceInfeasibilityIsProven)
{
    Model m;
    m.addResource(1.0, "power");
    Task t;
    t.modes.push_back({kNoGroup, 2, {2.0}}); // needs 2.0 > cap 1.0.
    m.addTask(t);
    m.setHorizon(10);
    Result r = Solver(exactOptions()).solve(m);
    EXPECT_EQ(r.status, SolveStatus::Infeasible);
}

TEST(Solver, ZeroTaskModelIsTrivial)
{
    Model m;
    m.setHorizon(4);
    Result r = Solver(exactOptions()).solve(m);
    EXPECT_TRUE(r.hasSchedule());
    EXPECT_EQ(r.makespan, 0);
}

TEST(Solver, PowerConstraintForcesSequentialExecution)
{
    // Figure 3 in miniature: two devices whose combined power
    // exceeds the budget, so their tasks serialize.
    Model m;
    m.addResource(3.0, "power");
    int gpu = m.addGroup("GPU");
    int dsa = m.addGroup("DSA");
    Task a;
    a.modes.push_back({gpu, 3, {3.0}});
    m.addTask(a);
    Task b;
    b.modes.push_back({dsa, 5, {2.0}});
    m.addTask(b);
    m.setHorizon(20);
    Result r = Solver(exactOptions()).solve(m);
    EXPECT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.makespan, 8); // 3 + 5, no overlap possible.
}

TEST(Solver, GapDefinitionMatchesPaper)
{
    Result r;
    r.makespan = 100;
    r.lowerBound = 90;
    EXPECT_DOUBLE_EQ(r.gap(), 0.10);
    r.makespan = 0;
    EXPECT_DOUBLE_EQ(r.gap(), 0.0);
}

TEST(Solver, StatusNames)
{
    EXPECT_STREQ(toString(SolveStatus::Optimal), "optimal");
    EXPECT_STREQ(toString(SolveStatus::NearOptimal), "near-optimal");
    EXPECT_STREQ(toString(SolveStatus::Feasible), "feasible");
    EXPECT_STREQ(toString(SolveStatus::Infeasible), "infeasible");
    EXPECT_STREQ(toString(SolveStatus::NoSolution), "no-solution");
}

TEST(Solver, SolveStatsArePopulated)
{
    Model m;
    int g = m.addGroup("G");
    for (int i = 0; i < 3; ++i) {
        Task t;
        t.modes.push_back({g, 2, {}});
        t.modes.push_back({kNoGroup, 3, {}});
        m.addTask(t);
    }
    m.setHorizon(12);
    Result r = Solver(exactOptions()).solve(m);
    EXPECT_TRUE(r.hasSchedule());
    EXPECT_GT(r.stats.greedyMakespan, 0);
    EXPECT_GE(r.stats.seconds, 0.0);
}

/** A moderately hard instance: three devices, power, precedence. */
Model
contendedModel(int tasks)
{
    Model m;
    m.addResource(4.0, "power");
    int g0 = m.addGroup("G0");
    int g1 = m.addGroup("G1");
    Rng rng(12345);
    for (int i = 0; i < tasks; ++i) {
        Task t;
        t.name = "t" + std::to_string(i);
        t.modes.push_back({kNoGroup,
                           static_cast<Time>(rng.uniformInt(3, 6)),
                           {1.0}});
        t.modes.push_back({rng.chance(0.5) ? g0 : g1,
                           static_cast<Time>(rng.uniformInt(1, 3)),
                           {2.0}});
        m.addTask(t);
        if (i > 0 && rng.chance(0.4))
            m.addPrecedence(static_cast<int>(rng.uniformInt(0, i - 1)),
                            i);
    }
    m.setHorizon(200);
    return m;
}

TEST(Solver, RepeatedSolvesAreDeterministic)
{
    Model m = contendedModel(10);
    SolverOptions options = exactOptions();
    Result a = Solver(options).solve(m);
    Result b = Solver(options).solve(m);
    ASSERT_TRUE(a.hasSchedule());
    ASSERT_TRUE(b.hasSchedule());
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.lowerBound, b.lowerBound);
    EXPECT_EQ(a.stats.nodes, b.stats.nodes);
    EXPECT_EQ(a.stats.backtracks, b.stats.backtracks);
    ASSERT_EQ(a.schedule.tasks.size(), b.schedule.tasks.size());
    for (size_t t = 0; t < a.schedule.tasks.size(); ++t) {
        EXPECT_EQ(a.schedule.tasks[t].mode, b.schedule.tasks[t].mode);
        EXPECT_EQ(a.schedule.tasks[t].start,
                  b.schedule.tasks[t].start);
    }
}

TEST(Solver, SeedSaltGivesTheRetryAFreshHeuristicSeed)
{
    // The sweep's fault-isolation retry salts seedSalt with the
    // attempt index, so its greedy restarts and hill climbing must
    // start from another seed than the attempt that failed; an
    // unsalted solve keeps `seed` itself, bit for bit.
    SolverOptions options;
    EXPECT_EQ(heuristicSeed(options), options.seed);
    SolverOptions retry = options;
    retry.seedSalt = 0x9e3779b97f4a7c15ull;
    EXPECT_NE(heuristicSeed(retry), options.seed);
}

TEST(Solver, FeasibleHintIsAcceptedAndNeverWorsened)
{
    Model m = contendedModel(10);
    Result cold = Solver(exactOptions()).solve(m);
    ASSERT_TRUE(cold.hasSchedule());

    // Starve the solver so the hint has to carry the result.
    SolverOptions tight;
    tight.targetGap = 0.0;
    tight.maxNodes = 1;
    Result warm = Solver(tight).solve(m, &cold.schedule);
    ASSERT_TRUE(warm.hasSchedule());
    EXPECT_TRUE(warm.stats.hintAccepted);
    EXPECT_EQ(warm.stats.hintMakespan, cold.makespan);
    EXPECT_LE(warm.makespan, cold.makespan);
}

TEST(Solver, InvalidHintIsIgnored)
{
    Model m = contendedModel(6);
    // A hint that violates the model (all tasks overlap at start 0
    // on their device modes) must be rejected, not crash the solve.
    ScheduleVec bogus;
    bogus.tasks.assign(m.numTasks(), Assignment{1, 0});
    Result r = Solver(exactOptions()).solve(m, &bogus);
    ASSERT_TRUE(r.hasSchedule());
    EXPECT_FALSE(r.stats.hintAccepted);
    EXPECT_TRUE(checkSchedule(m, r.schedule).empty());
}

TEST(Solver, NullHintMatchesPlainSolve)
{
    Model m = contendedModel(8);
    Result plain = Solver(exactOptions()).solve(m);
    Result with_null = Solver(exactOptions()).solve(m, nullptr);
    ASSERT_TRUE(plain.hasSchedule());
    EXPECT_EQ(plain.makespan, with_null.makespan);
    EXPECT_EQ(plain.stats.nodes, with_null.stats.nodes);
}

/**
 * Randomized cross-check against the brute-force oracle. Instances
 * are kept tiny (3 tasks, horizon 6) so exhaustive enumeration is
 * affordable, but they cover groups, resources, multi-mode choice,
 * and precedence.
 */
class SolverOracle : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SolverOracle, MatchesBruteForce)
{
    Rng rng(GetParam());
    Model m;
    m.addResource(2.0, "res");
    int g = m.addGroup("G");
    const int n = 3;
    for (int i = 0; i < n; ++i) {
        Task t;
        t.name = "t" + std::to_string(i);
        int modes = 1 + static_cast<int>(rng.uniformInt(0, 1));
        for (int mo = 0; mo < modes; ++mo) {
            Mode mode;
            mode.group = rng.chance(0.5) ? g : kNoGroup;
            mode.duration = static_cast<Time>(rng.uniformInt(1, 3));
            mode.usage = {rng.chance(0.5) ? 1.0 : 2.0};
            t.modes.push_back(mode);
        }
        m.addTask(t);
    }
    if (rng.chance(0.7))
        m.addPrecedence(0, 1);
    if (rng.chance(0.4))
        m.addPrecedence(1, 2);
    m.setHorizon(6);

    Time oracle = bruteForceOptimum(m);
    Result r = Solver(exactOptions()).solve(m);
    if (oracle < 0) {
        EXPECT_EQ(r.status, SolveStatus::Infeasible);
    } else {
        ASSERT_TRUE(r.hasSchedule())
            << "oracle found makespan " << oracle;
        EXPECT_EQ(r.status, SolveStatus::Optimal);
        EXPECT_EQ(r.makespan, oracle);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SolverOracle,
                         ::testing::Range<uint64_t>(1, 31));

} // anonymous namespace
} // namespace cp
} // namespace hilp
