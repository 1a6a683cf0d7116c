/**
 * @file
 * Tests for the node bound: its bound reproduces the individual
 * pruning rules, remove() restores what place() changed, and per-rule
 * telemetry is populated.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cp/bounds.hh"
#include "cp/model.hh"
#include "cp/propagate.hh"
#include "cp/search.hh"

namespace hilp {
namespace cp {
namespace {

/**
 * One group, one 2.0-capacity resource, three tasks:
 *  t0: G, 3 steps, 0.5   (pinned to G)
 *  t1: G, 4 steps, 0.5   (pinned to G)
 *  t2: -, 2 steps, 2.0
 * Disjunctive bound 7, energy bound ceil(7.5 / 2) = 4, critical
 * path 4; the node bound must report the max: 7.
 */
Model
smallModel()
{
    Model m;
    m.addResource(2.0, "power");
    int g = m.addGroup("GPU");
    m.setHorizon(40);
    m.addTask(Task{"t0", {Mode{g, 3, {0.5}}}});
    m.addTask(Task{"t1", {Mode{g, 4, {0.5}}}});
    m.addTask(Task{"t2", {Mode{kNoGroup, 2, {2.0}}}});
    return m;
}

/** The stats of the rule with this name (the test fails without). */
const PropagatorStats &
ruleStats(const NodeBound &bound, const std::string &name)
{
    for (const PropagatorStats &s : bound.stats())
        if (s.name == name)
            return s;
    ADD_FAILURE() << "no rule named " << name;
    return bound.stats().front();
}

TEST(Propagate, FixpointReportsStrongestRule)
{
    Model m = smallModel();
    CriticalPathData cp = criticalPathData(m);
    NodeBound bound(m, cp);
    std::vector<Assignment> assign(3);
    std::vector<Time> end(3, 0);

    // Disjunctive load wins.
    EXPECT_EQ(bound.bound(assign, end, 0, 0, m.horizon() + 1), 7);
    // The external lower bound dominates.
    EXPECT_EQ(bound.bound(assign, end, 0, 9, m.horizon() + 1), 9);
}

TEST(Propagate, PlacementTightensBoundsAndUndoRestoresThem)
{
    Model m = smallModel();
    CriticalPathData cp = criticalPathData(m);
    NodeBound bound(m, cp);
    std::vector<Assignment> assign(3);
    std::vector<Time> end(3, 0);
    const Time ub = m.horizon() + 1;

    Time before = bound.bound(assign, end, 0, 0, ub);

    // Place t1 late: its window pushes the partial makespan.
    const Mode &mode = m.task(1).modes[0];
    bound.place(1, mode);
    assign[1] = {0, 10};
    end[1] = 14;
    // Busy 4 on the group + 3 still pinned, but the makespan 14
    // already dominates every rule.
    EXPECT_EQ(bound.bound(assign, end, 14, 0, ub), 14);

    bound.remove(1, mode);
    assign[1] = Assignment{};
    end[1] = 0;
    EXPECT_EQ(bound.bound(assign, end, 0, 0, ub), before);
}

TEST(Propagate, TelemetryCountsInvocationsAndPrunings)
{
    Model m = smallModel();
    CriticalPathData cp = criticalPathData(m);
    NodeBound bound(m, cp);
    std::vector<Assignment> assign(3);
    std::vector<Time> end(3, 0);

    bound.bound(assign, end, 0, 0, m.horizon() + 1);
    // The true bound is 7: an incumbent of 5 must trigger a cutoff,
    // attributed to whichever rule proved it.
    EXPECT_GE(bound.bound(assign, end, 0, 0, 5), 5);

    const std::vector<PropagatorStats> &stats = bound.stats();
    ASSERT_EQ(stats.size(), 3u);
    int64_t invocations = 0;
    int64_t prunings = 0;
    for (const PropagatorStats &s : stats) {
        EXPECT_FALSE(s.name.empty());
        invocations += s.invocations;
        prunings += s.prunings;
    }
    EXPECT_GE(invocations, 4);
    EXPECT_GE(prunings, 1);
}

TEST(Propagate, PrecedenceRuleFollowsChainsAndLags)
{
    // a (3 steps) -> b (4 steps) finish-to-start, and c (2 steps)
    // starts at least 8 steps after a; one roomy resource, no group.
    Model m;
    m.addResource(10.0, "power");
    m.setHorizon(40);
    int a = m.addTask(Task{"a", {Mode{kNoGroup, 3, {1.0}}}});
    int b = m.addTask(Task{"b", {Mode{kNoGroup, 4, {1.0}}}});
    int c = m.addTask(Task{"c", {Mode{kNoGroup, 2, {1.0}}}});
    m.addPrecedence(a, b);
    m.addStartLag(a, c, 8);
    CriticalPathData cp = criticalPathData(m);
    NodeBound bound(m, cp);
    std::vector<Assignment> assign(3);
    std::vector<Time> end(3, 0);
    const Time ub = m.horizon() + 1;

    // The lag chain a -> c, 8 + 2, is the longest.
    EXPECT_EQ(bound.bound(assign, end, 0, 0, ub), 10);

    // a at 4 (ending at 7): b is ready at 7 and ends by 11, c starts
    // at 12 and ends by 14.
    bound.place(a, m.task(a).modes[0]);
    assign[a] = {0, 4};
    end[a] = 7;
    EXPECT_EQ(bound.bound(assign, end, 7, 0, ub), 14);

    // Against ub = 14 only the precedence rule reaches the cutoff.
    EXPECT_EQ(bound.bound(assign, end, 7, 0, 14), 14);
    EXPECT_EQ(ruleStats(bound, "precedence").prunings, 1);
    EXPECT_EQ(ruleStats(bound, "timetable").prunings, 0);
    EXPECT_EQ(ruleStats(bound, "disjunctive").prunings, 0);
}

TEST(Propagate, DisjunctiveRuleCountsBusyTimeOfUnpinnedTasks)
{
    // t0 is pinned to G; t1 runs either on G for 2 steps or off it
    // for 6. No cumulative resource at all.
    Model m;
    int g = m.addGroup("G");
    m.setHorizon(40);
    m.addTask(Task{"t0", {Mode{g, 3, {}}}});
    m.addTask(Task{"t1", {Mode{g, 2, {}}, Mode{kNoGroup, 6, {}}}});
    CriticalPathData cp = criticalPathData(m);
    NodeBound bound(m, cp);
    std::vector<Assignment> assign(2);
    std::vector<Time> end(2, 0);
    const Time ub = m.horizon() + 1;

    // Only t0's 3 steps are certain to land on G.
    EXPECT_EQ(bound.bound(assign, end, 0, 0, ub), 3);

    const Mode &on_g = m.task(1).modes[0];
    bound.place(1, on_g);
    assign[1] = {0, 0};
    end[1] = 2;
    EXPECT_EQ(bound.bound(assign, end, 2, 0, ub), 5);

    bound.remove(1, on_g);
    assign[1] = Assignment{};
    end[1] = 0;
    EXPECT_EQ(bound.bound(assign, end, 0, 0, ub), 3);
}

TEST(Propagate, SearchReportsPerPropagatorStats)
{
    Model m = smallModel();
    SearchLimits limits;
    SearchResult result = branchAndBound(m, nullptr, limits);
    ASSERT_TRUE(result.foundSolution);
    ASSERT_TRUE(result.exhausted);

    std::vector<std::string> names;
    for (const PropagatorStats &s : result.propagators)
        names.push_back(s.name);
    EXPECT_NE(std::find(names.begin(), names.end(), "timetable"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "disjunctive"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "precedence"),
              names.end());
    EXPECT_EQ(names.size(), 3u);
}

TEST(Propagate, MergeStatsAccumulatesByName)
{
    std::vector<PropagatorStats> into;
    mergePropagatorStats(into, {{"timetable", 10, 2, 0.5},
                                {"precedence", 4, 1, 0.25}});
    mergePropagatorStats(into, {{"timetable", 5, 1, 0.5},
                                {"disjunctive", 7, 0, 0.125}});
    ASSERT_EQ(into.size(), 3u);
    EXPECT_EQ(into[0].name, "timetable");
    EXPECT_EQ(into[0].invocations, 15);
    EXPECT_EQ(into[0].prunings, 3);
    EXPECT_DOUBLE_EQ(into[0].seconds, 1.0);
    EXPECT_EQ(into[1].name, "precedence");
    EXPECT_EQ(into[2].name, "disjunctive");
    EXPECT_EQ(into[2].invocations, 7);
}

} // anonymous namespace
} // namespace cp
} // namespace hilp
