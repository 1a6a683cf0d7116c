/**
 * @file
 * Tests for the propagation engine: fixpoint bounds reproduce the
 * individual pruning rules, the trail unwinds placements exactly, and
 * per-propagator telemetry is populated.
 */

#include <gtest/gtest.h>

#include <algorithm>
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
 * path 4; the fixpoint must report the max: 7.
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

/** Install the three always-on propagators. */
void
addDefaultPropagators(PropagationEngine &engine, const Model &m)
{
    engine.add(makeTimetablePropagator(m));
    engine.add(makeDisjunctivePropagator(m));
    engine.add(makePrecedencePropagator(m));
}

TEST(Propagate, FixpointReportsStrongestRule)
{
    Model m = smallModel();
    PropagationEngine engine(m);
    addDefaultPropagators(engine, m);
    CriticalPathData cp = criticalPathData(m);
    std::vector<Assignment> assign(3);
    std::vector<Time> end(3, 0);
    std::vector<Time> est(3, 0);

    PropagationContext ctx{m, cp, assign, end, 0, 0,
                           m.horizon() + 1, est};
    EXPECT_EQ(engine.fixpoint(ctx), 7); // disjunctive load wins.

    PropagationContext floored{m, cp, assign, end, 0, 9,
                               m.horizon() + 1, est};
    EXPECT_EQ(engine.fixpoint(floored), 9); // external LB dominates.
}

TEST(Propagate, PlacementTightensBoundsAndUndoRestoresThem)
{
    Model m = smallModel();
    PropagationEngine engine(m);
    addDefaultPropagators(engine, m);
    CriticalPathData cp = criticalPathData(m);
    std::vector<Assignment> assign(3);
    std::vector<Time> end(3, 0);
    std::vector<Time> est(3, 0);

    PropagationContext ctx{m, cp, assign, end, 0, 0,
                           m.horizon() + 1, est};
    Time before = engine.fixpoint(ctx);

    // Place t1 late: its window pushes the partial makespan.
    const Mode &mode = m.task(1).modes[0];
    engine.place(1, mode, 10);
    assign[1] = {0, 10};
    end[1] = 14;
    EXPECT_EQ(engine.depth(), 1u);
    EXPECT_TRUE(engine.profile().groupBusy(0, 12));

    PropagationContext placed{m, cp, assign, end, 14, 0,
                              m.horizon() + 1, est};
    // Busy 4 on the group + 3 still pinned, but the makespan 14
    // already dominates every rule.
    EXPECT_EQ(engine.fixpoint(placed), 14);

    engine.undo();
    assign[1] = Assignment{};
    end[1] = 0;
    EXPECT_EQ(engine.depth(), 0u);
    EXPECT_FALSE(engine.profile().groupBusy(0, 12));
    EXPECT_EQ(engine.profile().usageUnits(0, 12), 0);
    EXPECT_EQ(engine.fixpoint(ctx), before);
}

TEST(Propagate, TelemetryCountsInvocationsAndPrunings)
{
    Model m = smallModel();
    PropagationEngine engine(m);
    addDefaultPropagators(engine, m);
    CriticalPathData cp = criticalPathData(m);
    std::vector<Assignment> assign(3);
    std::vector<Time> end(3, 0);
    std::vector<Time> est(3, 0);

    PropagationContext ctx{m, cp, assign, end, 0, 0,
                           m.horizon() + 1, est};
    engine.fixpoint(ctx);
    // The true bound is 7: an incumbent of 5 must trigger a cutoff,
    // attributed to whichever propagator proved it.
    PropagationContext cutoff{m, cp, assign, end, 0, 0, 5, est};
    EXPECT_GE(engine.fixpoint(cutoff), 5);

    std::vector<PropagatorStats> stats = engine.stats();
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
