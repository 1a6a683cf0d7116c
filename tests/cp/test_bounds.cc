/** @file Unit tests for the lower-bound engine. */

#include <gtest/gtest.h>

#include "cp/bounds.hh"
#include "cp/model.hh"

namespace hilp {
namespace cp {
namespace {

Model
chainModel(const std::vector<Time> &durations)
{
    Model m;
    for (Time d : durations) {
        Task t;
        t.modes.push_back({kNoGroup, d, {}});
        m.addTask(t);
    }
    for (size_t i = 0; i + 1 < durations.size(); ++i)
        m.addPrecedence(static_cast<int>(i), static_cast<int>(i + 1));
    m.setHorizon(1000);
    return m;
}

TEST(Bounds, CriticalPathOfChainIsSum)
{
    Model m = chainModel({3, 4, 5});
    LowerBounds lb = computeLowerBounds(m, false);
    EXPECT_EQ(lb.criticalPath, 12);
    EXPECT_EQ(lb.best(), 12);
}

TEST(Bounds, CriticalPathUsesMinDurations)
{
    Model m;
    Task a;
    a.modes.push_back({kNoGroup, 10, {}});
    a.modes.push_back({kNoGroup, 4, {}});
    m.addTask(a);
    Task b;
    b.modes.push_back({kNoGroup, 6, {}});
    m.addTask(b);
    m.addPrecedence(0, 1);
    m.setHorizon(100);
    LowerBounds lb = computeLowerBounds(m, false);
    EXPECT_EQ(lb.criticalPath, 10); // 4 + 6.
}

TEST(Bounds, CriticalPathOfDiamondDag)
{
    // 0 -> {1, 2} -> 3 with durations 1, 5, 2, 1: path 0-1-3 = 7.
    Model m;
    std::vector<Time> durs = {1, 5, 2, 1};
    for (Time d : durs) {
        Task t;
        t.modes.push_back({kNoGroup, d, {}});
        m.addTask(t);
    }
    m.addPrecedence(0, 1);
    m.addPrecedence(0, 2);
    m.addPrecedence(1, 3);
    m.addPrecedence(2, 3);
    m.setHorizon(100);
    CriticalPathData cp = criticalPathData(m);
    EXPECT_EQ(cp.head[0], 0);
    EXPECT_EQ(cp.head[1], 1);
    EXPECT_EQ(cp.head[3], 6);
    EXPECT_EQ(cp.tail[0], 7);
    EXPECT_EQ(cp.tail[3], 1);
    LowerBounds lb = computeLowerBounds(m, false);
    EXPECT_EQ(lb.criticalPath, 7);
}

TEST(Bounds, GroupLoadOfPinnedTasks)
{
    Model m;
    int g = m.addGroup("G");
    for (Time d : {3, 4, 5}) {
        Task t;
        t.modes.push_back({g, d, {}});
        m.addTask(t);
    }
    m.setHorizon(100);
    LowerBounds lb = computeLowerBounds(m, false);
    EXPECT_EQ(lb.groupLoad, 12);
    EXPECT_EQ(lb.best(), 12);
}

TEST(Bounds, GroupLoadIgnoresUnpinnedTasks)
{
    Model m;
    int g = m.addGroup("G");
    Task pinned;
    pinned.modes.push_back({g, 5, {}});
    m.addTask(pinned);
    Task flexible;
    flexible.modes.push_back({g, 5, {}});
    flexible.modes.push_back({kNoGroup, 9, {}});
    m.addTask(flexible);
    m.setHorizon(100);
    LowerBounds lb = computeLowerBounds(m, false);
    EXPECT_EQ(lb.groupLoad, 5);
}

TEST(Bounds, ResourceEnergyBound)
{
    Model m;
    m.addResource(2.0, "power");
    for (int i = 0; i < 4; ++i) {
        Task t;
        t.modes.push_back({kNoGroup, 3, {2.0}});
        m.addTask(t);
    }
    m.setHorizon(100);
    LowerBounds lb = computeLowerBounds(m, false);
    // Total energy 4 * 3 * 2 = 24; capacity 2 -> at least 12 steps.
    EXPECT_EQ(lb.resourceEnergy, 12);
}

TEST(Bounds, ResourceEnergyUsesCheapestMode)
{
    Model m;
    m.addResource(1.0, "power");
    Task t;
    t.modes.push_back({kNoGroup, 10, {1.0}}); // energy 10
    t.modes.push_back({kNoGroup, 4, {1.0}});  // energy 4
    m.addTask(t);
    m.setHorizon(100);
    LowerBounds lb = computeLowerBounds(m, false);
    EXPECT_EQ(lb.resourceEnergy, 4);
}

TEST(Bounds, LpDominatesOnMixedInstance)
{
    // Two chains share one group; the LP sees both the path and the
    // load, and its bound must be at least each combinatorial bound.
    Model m;
    int g = m.addGroup("G");
    for (int chain = 0; chain < 2; ++chain) {
        Task a;
        a.modes.push_back({kNoGroup, 2, {}});
        int ai = m.addTask(a);
        Task b;
        b.modes.push_back({g, 6, {}});
        int bi = m.addTask(b);
        m.addPrecedence(ai, bi);
    }
    m.setHorizon(100);
    LowerBounds lb = computeLowerBounds(m, true);
    EXPECT_EQ(lb.criticalPath, 8);
    EXPECT_EQ(lb.groupLoad, 12);
    // LP combines: start of second group task >= 2, plus 12 load.
    EXPECT_GE(lb.lpRelaxation, 12);
    EXPECT_GE(lb.best(), 12);
}

TEST(Bounds, LpAccountsForPrecedenceOffsets)
{
    // setup (3) -> compute (5, pinned); LP must see 3 + 5 = 8.
    Model m;
    int g = m.addGroup("G");
    Task a;
    a.modes.push_back({kNoGroup, 3, {}});
    m.addTask(a);
    Task b;
    b.modes.push_back({g, 5, {}});
    m.addTask(b);
    m.addPrecedence(0, 1);
    m.setHorizon(100);
    LowerBounds lb = computeLowerBounds(m, true);
    EXPECT_GE(lb.lpRelaxation, 8);
}

TEST(Bounds, LpNeverExceedsKnownOptimum)
{
    // Two independent unit tasks on one group: optimum is 2.
    Model m;
    int g = m.addGroup("G");
    for (int i = 0; i < 2; ++i) {
        Task t;
        t.modes.push_back({g, 1, {}});
        m.addTask(t);
    }
    m.setHorizon(100);
    LowerBounds lb = computeLowerBounds(m, true);
    EXPECT_LE(lb.best(), 2);
    EXPECT_GE(lb.best(), 2); // Here the load bound is exact.
}

TEST(Bounds, LpIgnoresModesOverCapacity)
{
    // The task's 2-step mode sits on the group and needs 3.0 of a
    // 2.0 resource, so it can never run: the LP has no column for it
    // and charges the 7-step mode in full, while the critical path
    // still counts the 2-step one.
    Model m;
    m.addResource(2.0, "power");
    int g = m.addGroup("G");
    Task t;
    t.modes.push_back({g, 2, {3.0}});
    t.modes.push_back({kNoGroup, 7, {1.0}});
    m.addTask(t);
    m.setHorizon(100);
    LowerBounds lb = computeLowerBounds(m, true);
    EXPECT_EQ(lb.criticalPath, 2);
    EXPECT_EQ(lb.lpRelaxation, 7);
}

TEST(Bounds, EmptyishModelHasZeroBounds)
{
    Model m;
    Task t;
    t.modes.push_back({kNoGroup, 0, {}});
    m.addTask(t);
    m.setHorizon(10);
    LowerBounds lb = computeLowerBounds(m, true);
    EXPECT_EQ(lb.best(), 0);
}

TEST(Bounds, BestPicksMaximum)
{
    LowerBounds lb;
    lb.criticalPath = 3;
    lb.groupLoad = 7;
    lb.resourceEnergy = 5;
    lb.lpRelaxation = 6;
    EXPECT_EQ(lb.best(), 7);
}

} // anonymous namespace
} // namespace cp
} // namespace hilp
