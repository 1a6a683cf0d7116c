/** @file Unit tests for the greedy list scheduler. */

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>

#include "cp/list_scheduler.hh"
#include "cp/model.hh"

namespace hilp {
namespace cp {
namespace {

/** Chain of n unit tasks on one group. */
Model
chainModel(int n, Time horizon)
{
    Model m;
    int g = m.addGroup("G");
    for (int i = 0; i < n; ++i) {
        Task t;
        t.name = "t" + std::to_string(i);
        t.modes.push_back({g, 1, {}});
        m.addTask(t);
    }
    for (int i = 0; i + 1 < n; ++i)
        m.addPrecedence(i, i + 1);
    m.setHorizon(horizon);
    return m;
}

std::vector<int>
identityOrder(int n)
{
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    return order;
}

TEST(ListScheduler, ChainSchedulesBackToBack)
{
    Model m = chainModel(5, 10);
    ListResult r = listSchedule(m, identityOrder(5));
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.makespan, 5);
    EXPECT_EQ(checkSchedule(m, r.schedule), "");
}

TEST(ListScheduler, ReversePriorityStillRespectsPrecedence)
{
    Model m = chainModel(5, 10);
    std::vector<int> order = {4, 3, 2, 1, 0};
    ListResult r = listSchedule(m, order);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.makespan, 5);
    EXPECT_EQ(checkSchedule(m, r.schedule), "");
}

TEST(ListScheduler, InfeasibleWhenHorizonTooShort)
{
    Model m = chainModel(5, 4);
    ListResult r = listSchedule(m, identityOrder(5));
    EXPECT_FALSE(r.feasible);
}

TEST(ListScheduler, PicksFasterMode)
{
    Model m;
    int g = m.addGroup("G");
    Task t;
    t.modes.push_back({kNoGroup, 5, {}});
    t.modes.push_back({g, 2, {}});
    m.addTask(t);
    m.setHorizon(10);
    ListResult r = listSchedule(m, identityOrder(1));
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.schedule.tasks[0].mode, 1);
    EXPECT_EQ(r.makespan, 2);
}

TEST(ListScheduler, ForcedModeIsHonoured)
{
    Model m;
    int g = m.addGroup("G");
    Task t;
    t.modes.push_back({kNoGroup, 5, {}});
    t.modes.push_back({g, 2, {}});
    m.addTask(t);
    m.setHorizon(10);
    ListResult r = listSchedule(m, identityOrder(1), {0});
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.schedule.tasks[0].mode, 0);
    EXPECT_EQ(r.makespan, 5);
}

TEST(ListScheduler, ParallelTasksOverlapAcrossGroups)
{
    Model m;
    int g1 = m.addGroup("G1");
    int g2 = m.addGroup("G2");
    Task a;
    a.modes.push_back({g1, 4, {}});
    m.addTask(a);
    Task b;
    b.modes.push_back({g2, 4, {}});
    m.addTask(b);
    m.setHorizon(10);
    ListResult r = listSchedule(m, identityOrder(2));
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.makespan, 4);
}

TEST(ListScheduler, ResourceCapacitySerializes)
{
    Model m;
    m.addResource(1.0, "r");
    for (int i = 0; i < 3; ++i) {
        Task t;
        t.modes.push_back({kNoGroup, 2, {1.0}});
        m.addTask(t);
    }
    m.setHorizon(10);
    ListResult r = listSchedule(m, identityOrder(3));
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.makespan, 6);
    EXPECT_EQ(checkSchedule(m, r.schedule), "");
}

TEST(BestGreedy, FindsFeasibleScheduleOnMixedModel)
{
    Model m;
    m.addResource(2.0, "cpu");
    int g = m.addGroup("GPU");
    for (int i = 0; i < 4; ++i) {
        Task setup;
        setup.name = "setup";
        setup.modes.push_back({kNoGroup, 1, {1.0}});
        int s = m.addTask(setup);
        Task compute;
        compute.name = "compute";
        compute.modes.push_back({g, 2, {0.0}});
        compute.modes.push_back({kNoGroup, 5, {2.0}});
        int c = m.addTask(compute);
        m.addPrecedence(s, c);
    }
    m.setHorizon(40);
    ListResult r = bestGreedy(m);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(checkSchedule(m, r.schedule), "");
    // Critical path is 1 (setup) + 2 (compute) = 3; the GPU load of
    // up to four 2-step computes plus the CPU alternative bounds the
    // makespan into [3, 12].
    EXPECT_GE(r.makespan, 3);
    EXPECT_LE(r.makespan, 12);
}

TEST(BestGreedy, InfeasibleModelReported)
{
    Model m = chainModel(8, 4);
    ListResult r = bestGreedy(m);
    EXPECT_FALSE(r.feasible);
}

TEST(ImproveGreedy, NeverWorsens)
{
    Model m;
    m.addResource(2.0, "cpu");
    int g = m.addGroup("GPU");
    for (int i = 0; i < 5; ++i) {
        Task t;
        t.modes.push_back({g, 2 + i % 3, {0.0}});
        t.modes.push_back({kNoGroup, 4, {1.0}});
        m.addTask(t);
    }
    m.setHorizon(30);
    ListResult greedy = bestGreedy(m);
    ASSERT_TRUE(greedy.feasible);
    ListResult improved = improveGreedy(m, greedy, 100);
    ASSERT_TRUE(improved.feasible);
    EXPECT_LE(improved.makespan, greedy.makespan);
    EXPECT_EQ(checkSchedule(m, improved.schedule), "");
}

TEST(ImproveGreedy, PassesThroughInfeasibleStart)
{
    Model m = chainModel(8, 4);
    ListResult bad;
    bad.feasible = false;
    ListResult out = improveGreedy(m, bad, 50);
    EXPECT_FALSE(out.feasible);
}

TEST(ImproveGreedy, StopsAtTheDeadline)
{
    // A billion passes would run for hours; the deadline, 50 ms out,
    // must end the climb instead, whatever the iteration budget.
    using Clock = std::chrono::steady_clock;
    Model m = chainModel(12, 40);
    ListResult greedy = bestGreedy(m);
    ASSERT_TRUE(greedy.feasible);
    Clock::time_point t0 = Clock::now();
    ListResult out = improveGreedy(m, greedy, 1'000'000'000, 99,
                                   t0 + std::chrono::milliseconds(50));
    double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    EXPECT_LT(elapsed, 1.0);
    ASSERT_TRUE(out.feasible);
    EXPECT_LE(out.makespan, greedy.makespan);
    EXPECT_EQ(checkSchedule(m, out.schedule), "");
}

TEST(ImproveGreedy, ZeroIterationsIsIdentity)
{
    Model m = chainModel(3, 10);
    ListResult greedy = bestGreedy(m);
    ListResult out = improveGreedy(m, greedy, 0);
    EXPECT_EQ(out.makespan, greedy.makespan);
}

/**
 * Mode-forcing regression: the myopic rule picks the fast mode that
 * hogs the shared resource; the climber must discover that forcing
 * the slow low-usage mode enables overlap.
 */
TEST(ImproveGreedy, DiscoversResourceFriendlyModes)
{
    Model m;
    m.addResource(3.0, "power");
    int g1 = m.addGroup("A");
    int g2 = m.addGroup("B");
    // Task 0: fast mode uses all the power, slow mode uses little.
    Task t0;
    t0.modes.push_back({g1, 4, {3.0}});
    t0.modes.push_back({g1, 6, {1.0}});
    m.addTask(t0);
    // Task 1: only mode needs 2.0 power on another device.
    Task t1;
    t1.modes.push_back({g2, 6, {2.0}});
    m.addTask(t1);
    m.setHorizon(20);
    // Greedy: t0 fast (4 steps, 3.0 power) then t1 (6) -> 10 steps.
    // Optimal: t0 slow + t1 in parallel -> 6 steps.
    ListResult greedy = bestGreedy(m, 0);
    ASSERT_TRUE(greedy.feasible);
    ListResult improved = improveGreedy(m, greedy, 300);
    ASSERT_TRUE(improved.feasible);
    EXPECT_EQ(improved.makespan, 6);
}

} // anonymous namespace
} // namespace cp
} // namespace hilp
