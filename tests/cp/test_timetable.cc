/** @file Unit tests for the timetable (occupancy profile). */

#include <gtest/gtest.h>

#include "cp/model.hh"
#include "oracles/timetable.hh"

namespace hilp {
namespace cp {
namespace {

/** Model with one 2.0-capacity resource and two groups. */
Model
baseModel()
{
    Model m;
    m.addResource(2.0, "power");
    m.addGroup("GPU");
    m.addGroup("DSA");
    m.setHorizon(10);
    return m;
}

TEST(Timetable, EmptyTableFitsEverything)
{
    Model m = baseModel();
    Timetable table(m);
    Mode mode{0, 4, {2.0}};
    EXPECT_TRUE(table.fits(mode, 0));
    EXPECT_EQ(table.earliestStart(mode, 0), 0);
}

TEST(Timetable, HorizonLimitsPlacement)
{
    Model m = baseModel();
    Timetable table(m);
    Mode mode{0, 4, {1.0}};
    EXPECT_TRUE(table.fits(mode, 6));
    EXPECT_FALSE(table.fits(mode, 7)); // would end at 11 > 10.
    EXPECT_EQ(table.earliestStart(mode, 7), -1);
}

TEST(Timetable, GroupConflictPushesStart)
{
    Model m = baseModel();
    Timetable table(m);
    Mode first{0, 4, {0.0}};
    table.place(first, 2); // GPU busy [2, 6).
    Mode second{0, 3, {0.0}};
    EXPECT_EQ(table.earliestStart(second, 0), 6);
    // A different group is unaffected.
    Mode other{1, 3, {0.0}};
    EXPECT_EQ(table.earliestStart(other, 0), 0);
}

TEST(Timetable, ResourceConflictPushesStart)
{
    Model m = baseModel();
    Timetable table(m);
    Mode first{0, 4, {1.5}};
    table.place(first, 0); // power 1.5 over [0, 4).
    Mode second{1, 2, {1.0}}; // different group, needs 1.0.
    EXPECT_EQ(table.earliestStart(second, 0), 4);
    Mode light{1, 2, {0.5}}; // fits alongside.
    EXPECT_EQ(table.earliestStart(light, 0), 0);
}

TEST(Timetable, GapBetweenPlacementsIsFound)
{
    Model m = baseModel();
    Timetable table(m);
    Mode a{0, 2, {0.0}};
    table.place(a, 0); // GPU [0, 2)
    Mode b{0, 3, {0.0}};
    table.place(b, 5); // GPU [5, 8)
    Mode probe{0, 3, {0.0}};
    EXPECT_EQ(table.earliestStart(probe, 0), 2); // fits in [2, 5).
    Mode too_long{0, 4, {0.0}};
    EXPECT_EQ(table.earliestStart(too_long, 0), -1); // 8 + 4 > 10.
}

TEST(Timetable, PlaceRemoveRoundTrips)
{
    Model m = baseModel();
    Timetable table(m);
    Mode mode{0, 4, {1.2}};
    table.place(mode, 3);
    EXPECT_TRUE(table.groupBusy(0, 3));
    // Usage is stored in scaled integer units; conversion is exact
    // to within one unit (~1e-9).
    EXPECT_NEAR(table.usage(0, 4), 1.2, 1e-8);
    table.remove(mode, 3);
    EXPECT_FALSE(table.groupBusy(0, 3));
    // Integer round trip: removal restores exactly zero.
    EXPECT_EQ(table.usageUnits(0, 4), 0);
    EXPECT_DOUBLE_EQ(table.usage(0, 4), 0.0);
    // The table is empty again: everything fits at 0.
    EXPECT_EQ(table.earliestStart(mode, 0), 0);
}

TEST(Timetable, StackedUsageAccumulates)
{
    Model m = baseModel();
    Timetable table(m);
    Mode a{0, 5, {0.8}};
    Mode b{1, 5, {0.8}};
    table.place(a, 0);
    table.place(b, 0);
    EXPECT_NEAR(table.usage(0, 2), 1.6, 1e-8);
    Mode probe{kNoGroup, 1, {0.5}};
    EXPECT_EQ(table.earliestStart(probe, 0), 5); // 1.6 + 0.5 > 2.0.
}

TEST(Timetable, ZeroDurationAlwaysFits)
{
    Model m = baseModel();
    Timetable table(m);
    Mode blocker{0, 10, {2.0}};
    table.place(blocker, 0);
    Mode zero{0, 0, {2.0}};
    EXPECT_EQ(table.earliestStart(zero, 3), 3);
    EXPECT_TRUE(table.fits(zero, 10));
}

TEST(Timetable, NoGroupModeIgnoresGroups)
{
    Model m = baseModel();
    Timetable table(m);
    Mode gpu_block{0, 10, {0.0}};
    table.place(gpu_block, 0);
    Mode cpuish{kNoGroup, 4, {1.0}};
    EXPECT_EQ(table.earliestStart(cpuish, 0), 0);
}

TEST(Timetable, EstIsRespected)
{
    Model m = baseModel();
    Timetable table(m);
    Mode mode{0, 2, {0.0}};
    EXPECT_EQ(table.earliestStart(mode, 5), 5);
}

TEST(Timetable, CapacityBoundaryIsInclusive)
{
    Model m = baseModel();
    Timetable table(m);
    Mode exact{kNoGroup, 3, {2.0}}; // exactly the capacity.
    EXPECT_TRUE(table.fits(exact, 0));
    table.place(exact, 0);
    Mode epsilon{kNoGroup, 1, {0.001}};
    EXPECT_EQ(table.earliestStart(epsilon, 0), 3);
}

} // anonymous namespace
} // namespace cp
} // namespace hilp
