/** @file Tests for initiation intervals (start-to-start lags, the
 * Section VII extension) across the solver stack. */

#include <gtest/gtest.h>

#include "cp/bounds.hh"
#include "cp/list_scheduler.hh"
#include "cp/model.hh"
#include "cp/search.hh"
#include "cp/solver.hh"
#include "oracles/exhaustive.hh"
#include "support/random.hh"

namespace hilp {
namespace cp {
namespace {

/** Two tasks on separate groups with a start lag between them. */
Model
laggedPair(Time lag)
{
    Model m;
    int g1 = m.addGroup("A");
    int g2 = m.addGroup("B");
    Task a;
    a.modes.push_back({g1, 6, {}});
    m.addTask(a);
    Task b;
    b.modes.push_back({g2, 2, {}});
    m.addTask(b);
    m.addStartLag(0, 1, lag);
    m.setHorizon(32);
    return m;
}

TEST(StartLags, ModelBookkeeping)
{
    Model m = laggedPair(3);
    EXPECT_TRUE(m.hasStartLags());
    ASSERT_EQ(m.lagSuccessors(0).size(), 1u);
    EXPECT_EQ(m.lagSuccessors(0)[0].other, 1);
    EXPECT_EQ(m.lagSuccessors(0)[0].lag, 3);
    ASSERT_EQ(m.lagPredecessors(1).size(), 1u);
    EXPECT_EQ(m.lagPredecessors(1)[0].other, 0);
    EXPECT_TRUE(m.predecessors(1).empty()); // not a finish-to-start.
    EXPECT_EQ(m.validate(), "");
}

TEST(StartLags, CheckScheduleEnforcesLag)
{
    Model m = laggedPair(3);
    ScheduleVec ok_schedule;
    ok_schedule.tasks = {{0, 0}, {0, 3}};
    EXPECT_EQ(checkSchedule(m, ok_schedule), "");
    ScheduleVec bad;
    bad.tasks = {{0, 0}, {0, 2}};
    EXPECT_NE(checkSchedule(m, bad).find("start lag"),
              std::string::npos);
}

TEST(StartLags, LagAllowsOverlapUnlikePrecedence)
{
    // With a lag of 3 the successor runs inside the predecessor's
    // execution window - impossible under a precedence edge.
    Model m = laggedPair(3);
    Result r = Solver({.targetGap = 0.0}).solve(m);
    ASSERT_TRUE(r.hasSchedule());
    EXPECT_EQ(r.status, SolveStatus::Optimal);
    // a: [0,6); b: [3,5) -> makespan 6.
    EXPECT_EQ(r.makespan, 6);
}

TEST(StartLags, LongLagStretchesTheSchedule)
{
    Model m = laggedPair(10);
    Result r = Solver({.targetGap = 0.0}).solve(m);
    ASSERT_TRUE(r.hasSchedule());
    EXPECT_EQ(r.makespan, 12); // b starts at 10, ends at 12.
}

TEST(StartLags, ZeroLagAllowsSimultaneousStart)
{
    Model m = laggedPair(0);
    Result r = Solver({.targetGap = 0.0}).solve(m);
    ASSERT_TRUE(r.hasSchedule());
    EXPECT_EQ(r.makespan, 6);
}

TEST(StartLags, CriticalPathSeesLags)
{
    Model m = laggedPair(10);
    CriticalPathData cp = criticalPathData(m);
    EXPECT_EQ(cp.head[1], 10);
    EXPECT_EQ(cp.tail[0], 12); // lag 10 + duration 2 of successor.
    LowerBounds lb = computeLowerBounds(m, false);
    EXPECT_EQ(lb.criticalPath, 12);
}

TEST(StartLags, LpBoundSeesLags)
{
    Model m = laggedPair(10);
    LowerBounds lb = computeLowerBounds(m, true);
    EXPECT_GE(lb.lpRelaxation, 12);
}

TEST(StartLags, ListSchedulerHonoursLags)
{
    Model m = laggedPair(4);
    ListResult r = bestGreedy(m);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(checkSchedule(m, r.schedule), "");
    EXPECT_GE(r.schedule.tasks[1].start,
              r.schedule.tasks[0].start + 4);
}

TEST(StartLags, LagCycleIsRejected)
{
    Model m;
    for (int i = 0; i < 2; ++i) {
        Task t;
        t.modes.push_back({kNoGroup, 1, {}});
        m.addTask(t);
    }
    m.addStartLag(0, 1, 1);
    m.addStartLag(1, 0, 1);
    m.setHorizon(10);
    EXPECT_NE(m.validate().find("cycle"), std::string::npos);
}

TEST(StartLags, PipelinedChainWithInitiationInterval)
{
    // Three pipeline stages; each instance's stages are chained and
    // consecutive instances are separated by an initiation interval
    // of 2 on their first stages. Classic software-pipelining shape.
    Model m;
    int stage0 = m.addGroup("S0");
    int stage1 = m.addGroup("S1");
    std::vector<int> first_stage;
    for (int instance = 0; instance < 3; ++instance) {
        Task a;
        a.modes.push_back({stage0, 2, {}});
        int ai = m.addTask(a);
        Task b;
        b.modes.push_back({stage1, 2, {}});
        int bi = m.addTask(b);
        m.addPrecedence(ai, bi);
        if (!first_stage.empty())
            m.addStartLag(first_stage.back(), ai, 2);
        first_stage.push_back(ai);
    }
    m.setHorizon(40);
    Result r = Solver({.targetGap = 0.0}).solve(m);
    ASSERT_TRUE(r.hasSchedule());
    // Perfect pipelining: starts at 0/2/4, last finishes at 8.
    EXPECT_EQ(r.makespan, 8);
    EXPECT_EQ(r.status, SolveStatus::Optimal);
}

TEST(StartLags, OptionPruneCountsALagSuccessorFromTheStart)
{
    // A's group mode ends at 2 but blocks C on G until 2, so the
    // greedy schedule ends at 9. A's pool mode runs [0, 6) beside
    // B [1, 5) on the cpu while C runs [0, 7) on G: makespan 7. Its
    // lag successors count from A's start (X: lag 0 + tail 7), not
    // from its end, so the pool option's bound is 7 and the search
    // must not prune it against the incumbent 9.
    Model m;
    m.addResource(2.0, "cpu");
    const int g = m.addGroup("G");
    Task a;
    a.name = "A";
    a.modes.push_back({g, 2, {0.0}});
    a.modes.push_back({kNoGroup, 6, {1.0}});
    const int ta = m.addTask(a);
    const int tb = m.addTask(Task{"B", {Mode{kNoGroup, 4, {1.0}}}});
    const int tx = m.addTask(Task{"X", {Mode{kNoGroup, 0, {0.0}}}});
    const int tc = m.addTask(Task{"C", {Mode{g, 7, {0.0}}}});
    m.addStartLag(ta, tb, 1);
    m.addStartLag(ta, tx, 0);
    m.addStartLag(tx, tc, 0);
    m.setHorizon(20);
    ASSERT_EQ(m.validate(), "");

    ExhaustiveResult oracle = solveExhaustively(m);
    ASSERT_TRUE(oracle.complete);
    ASSERT_EQ(oracle.optimum, 7);
    Result r = Solver({.targetGap = 0.0, .lnsIterations = 0}).solve(m);
    ASSERT_TRUE(r.hasSchedule());
    EXPECT_EQ(r.makespan, 7);
    EXPECT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(checkSchedule(m, r.schedule), "");
}

/**
 * A small random model with start lags: four tasks of one or two
 * modes on one capacity-2 resource and one group, and an edge on
 * each task pair with probability 0.35, 60% of them lags of 0-3.
 */
Model
lagOracleModel(uint64_t seed)
{
    Rng rng(seed * 6271 + 11);
    Model m;
    m.addResource(2.0, "cpu");
    const int g = m.addGroup("G");
    for (int i = 0; i < 4; ++i) {
        Task task;
        const int64_t modes = rng.uniformInt(1, 2);
        for (int64_t k = 0; k < modes; ++k) {
            task.modes.push_back(
                {rng.chance(0.4) ? g : kNoGroup,
                 static_cast<Time>(rng.uniformInt(1, 4)),
                 {static_cast<double>(rng.uniformInt(0, 2))}});
        }
        m.addTask(std::move(task));
    }
    for (int i = 0; i < 4; ++i) {
        for (int j = i + 1; j < 4; ++j) {
            if (!rng.chance(0.35))
                continue;
            if (rng.chance(0.6))
                m.addStartLag(i, j,
                              static_cast<Time>(rng.uniformInt(0, 3)));
            else
                m.addPrecedence(i, j);
        }
    }
    m.setHorizon(12);
    return m;
}

/**
 * The bare search, with no warm start, must prove the optimum that
 * exhaustive enumeration finds on lag models, or the infeasibility
 * it finds. A search that never makes a lag successor eligible
 * exhausts its tree without a schedule; one whose option prune
 * over-counts a lag successor's tail misses the optimum.
 */
class StartLagsDiff : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(StartLagsDiff, SearchProvesTheExhaustiveOptimum)
{
    Model m = lagOracleModel(GetParam());
    ASSERT_EQ(m.validate(), "");
    ExhaustiveResult oracle = solveExhaustively(m);
    ASSERT_TRUE(oracle.complete);
    SearchLimits limits;
    limits.maxNodes = int64_t{1} << 40;
    limits.maxSeconds = 1e9;
    SearchResult search = branchAndBound(m, nullptr, limits);
    ASSERT_TRUE(search.exhausted);
    ASSERT_EQ(search.foundSolution, oracle.feasible);
    if (!oracle.feasible)
        return;
    EXPECT_EQ(search.bestMakespan, oracle.optimum);
    EXPECT_EQ(checkSchedule(m, search.best), "");
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, StartLagsDiff,
                         ::testing::Range<uint64_t>(1, 49));

} // anonymous namespace
} // namespace cp
} // namespace hilp
