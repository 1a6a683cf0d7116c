/**
 * @file
 * Unit tests for the interval-based occupancy Profile: the same
 * contract the dense timetable satisfies, plus the interval-specific
 * guarantees (busy-interval jumping, compact representation, exact
 * long place/remove round trips).
 */

#include <gtest/gtest.h>

#include <vector>

#include "cp/model.hh"
#include "cp/profile.hh"

namespace hilp {
namespace cp {
namespace {

/**
 * Add each mode to the model as a one-mode task, so the profile
 * finds its precomputed rows; modeOf(m, i) is the i-th one.
 */
void
addModes(Model &m, const std::vector<Mode> &modes)
{
    for (const Mode &mode : modes)
        m.addTask(Task{"", {mode}});
}

const Mode &
modeOf(const Model &m, int i)
{
    return m.task(i).modes[0];
}

/** Model with one 2.0-capacity resource, two groups and the modes. */
Model
baseModel(const std::vector<Mode> &modes)
{
    Model m;
    m.addResource(2.0, "power");
    m.addGroup("GPU");
    m.addGroup("DSA");
    m.setHorizon(10);
    addModes(m, modes);
    return m;
}

TEST(Profile, EmptyProfileFitsEverything)
{
    Model m = baseModel({Mode{0, 4, {2.0}}});
    Profile profile(m);
    const Mode &mode = modeOf(m, 0);
    EXPECT_TRUE(profile.fits(mode, 0));
    EXPECT_EQ(profile.earliestStart(mode, 0), 0);
}

TEST(Profile, HorizonLimitsPlacement)
{
    Model m = baseModel({Mode{0, 4, {1.0}}});
    Profile profile(m);
    const Mode &mode = modeOf(m, 0);
    EXPECT_TRUE(profile.fits(mode, 6));
    EXPECT_FALSE(profile.fits(mode, 7)); // would end at 11 > 10.
    EXPECT_EQ(profile.earliestStart(mode, 7), -1);
}

TEST(Profile, GroupConflictJumpsToIntervalEnd)
{
    Model m = baseModel({Mode{0, 4, {0.0}}, Mode{0, 3, {0.0}},
                         Mode{1, 3, {0.0}}});
    Profile profile(m);
    const Mode &first = modeOf(m, 0);
    profile.place(first, 2); // GPU busy [2, 6).
    const Mode &second = modeOf(m, 1);
    // The query jumps straight past the whole busy interval instead
    // of probing 3, 4, 5 one step at a time.
    EXPECT_EQ(profile.earliestStart(second, 0), 6);
    // A different group is unaffected.
    const Mode &other = modeOf(m, 2);
    EXPECT_EQ(profile.earliestStart(other, 0), 0);
}

TEST(Profile, ResourceConflictJumpsToSegmentEnd)
{
    Model m = baseModel({Mode{0, 4, {1.5}}, Mode{1, 2, {1.0}},
                         Mode{1, 2, {0.5}}});
    Profile profile(m);
    const Mode &first = modeOf(m, 0);
    profile.place(first, 0); // power 1.5 over [0, 4).
    const Mode &second = modeOf(m, 1); // different group, needs 1.0.
    EXPECT_EQ(profile.earliestStart(second, 0), 4);
    const Mode &light = modeOf(m, 2); // fits alongside.
    EXPECT_EQ(profile.earliestStart(light, 0), 0);
}

TEST(Profile, GapBetweenPlacementsIsFound)
{
    Model m = baseModel({Mode{0, 2, {0.0}}, Mode{0, 3, {0.0}},
                         Mode{0, 3, {0.0}}, Mode{0, 4, {0.0}}});
    Profile profile(m);
    const Mode &a = modeOf(m, 0);
    profile.place(a, 0); // GPU [0, 2)
    const Mode &b = modeOf(m, 1);
    profile.place(b, 5); // GPU [5, 8)
    const Mode &probe = modeOf(m, 2);
    EXPECT_EQ(profile.earliestStart(probe, 0), 2); // fits in [2, 5).
    const Mode &too_long = modeOf(m, 3);
    EXPECT_EQ(profile.earliestStart(too_long, 0), -1); // 8 + 4 > 10.
}

TEST(Profile, PlaceRemoveRoundTrips)
{
    Model m = baseModel({Mode{0, 4, {1.2}}});
    Profile profile(m);
    const Mode &mode = modeOf(m, 0);
    profile.place(mode, 3);
    EXPECT_TRUE(profile.groupBusy(0, 3));
    EXPECT_NEAR(profile.usage(0, 4), 1.2, 1e-8);
    profile.remove(mode, 3);
    EXPECT_FALSE(profile.groupBusy(0, 3));
    EXPECT_EQ(profile.usageUnits(0, 4), 0);
    EXPECT_EQ(profile.earliestStart(mode, 0), 0);
}

TEST(Profile, StackedUsageAccumulates)
{
    Model m = baseModel({Mode{0, 5, {0.8}}, Mode{1, 5, {0.8}},
                         Mode{kNoGroup, 1, {0.5}}});
    Profile profile(m);
    const Mode &a = modeOf(m, 0);
    const Mode &b = modeOf(m, 1);
    profile.place(a, 0);
    profile.place(b, 0);
    EXPECT_NEAR(profile.usage(0, 2), 1.6, 1e-8);
    const Mode &probe = modeOf(m, 2);
    EXPECT_EQ(profile.earliestStart(probe, 0), 5); // 1.6 + 0.5 > 2.0.
}

TEST(Profile, ZeroDurationAlwaysFits)
{
    Model m = baseModel({Mode{0, 10, {2.0}}, Mode{0, 0, {2.0}}});
    Profile profile(m);
    const Mode &blocker = modeOf(m, 0);
    profile.place(blocker, 0);
    const Mode &zero = modeOf(m, 1);
    EXPECT_EQ(profile.earliestStart(zero, 3), 3);
    EXPECT_TRUE(profile.fits(zero, 10));
}

TEST(Profile, NoGroupModeIgnoresGroups)
{
    Model m = baseModel({Mode{0, 10, {0.0}}, Mode{kNoGroup, 4, {1.0}}});
    Profile profile(m);
    const Mode &gpu_block = modeOf(m, 0);
    profile.place(gpu_block, 0);
    const Mode &cpuish = modeOf(m, 1);
    EXPECT_EQ(profile.earliestStart(cpuish, 0), 0);
}

TEST(Profile, EstIsRespected)
{
    Model m = baseModel({Mode{0, 2, {0.0}}});
    Profile profile(m);
    EXPECT_EQ(profile.earliestStart(modeOf(m, 0), 5), 5);
}

TEST(Profile, CapacityBoundaryIsInclusive)
{
    Model m = baseModel({Mode{kNoGroup, 3, {2.0}}, // exactly the capacity.
                         Mode{kNoGroup, 1, {0.001}}});
    Profile profile(m);
    const Mode &exact = modeOf(m, 0);
    EXPECT_TRUE(profile.fits(exact, 0));
    profile.place(exact, 0);
    const Mode &epsilon = modeOf(m, 1);
    EXPECT_EQ(profile.earliestStart(epsilon, 0), 3);
}

TEST(Profile, RepresentationIsCompact)
{
    Model m;
    m.addResource(4.0, "power");
    m.addGroup("GPU");
    m.setHorizon(100000); // huge horizon, tiny memory.
    addModes(m, {Mode{0, 10, {1.0}}, Mode{0, 20, {3.5}},
                 Mode{0, 20, {3.5}}});
    Profile profile(m);
    EXPECT_EQ(profile.segments(), 1u); // the constant-zero segment.
    const Mode &mode = modeOf(m, 0);
    profile.place(mode, 50000);
    // One placed interval costs at most two extra segments and one
    // busy interval, regardless of the horizon.
    EXPECT_EQ(profile.segments(), 3u);
    EXPECT_EQ(profile.intervals(0), 1u);
    // earliestStart over an empty prefix of a 1e5 horizon is a jump,
    // not a 50000-step scan; just confirm correctness here.
    const Mode &probe = modeOf(m, 1);
    EXPECT_EQ(profile.earliestStart(probe, 0), 0);
    const Mode &heavy = modeOf(m, 2);
    EXPECT_EQ(profile.earliestStart(heavy, 49990), 50010);
    profile.remove(mode, 50000);
    EXPECT_EQ(profile.segments(), 1u);
    EXPECT_EQ(profile.intervals(0), 0u);
}

/**
 * Regression for the historic floating-point drift: the dense
 * timetable used to accumulate double usage and clamp tiny negative
 * residue in remove(), so millions of place/remove cycles (exactly
 * what branch-and-bound does) could drift the profile. In scaled
 * integer units every round trip must restore the representation
 * bit-for-bit; run a long randomized-shape workload and require an
 * exactly-empty profile at the end.
 */
TEST(Profile, LongPlaceRemoveRoundTripIsExact)
{
    Model m;
    m.addResource(1.0, "power");   // awkward fractions below.
    m.addResource(3.3, "bw");
    int g = m.addGroup("GPU");
    m.setHorizon(64);
    // 0.1 and 0.3 are classic repeating binary fractions: under
    // double accumulation, (x + 0.1) - 0.1 != x for many x.
    addModes(m, {Mode{g, 7, {0.1, 0.3}}, Mode{kNoGroup, 5, {0.3, 1.1}},
                 Mode{kNoGroup, 9, {0.2, 0.7}}, Mode{g, 64, {1.0, 3.3}}});
    Profile profile(m);
    const Mode &a = modeOf(m, 0);
    const Mode &b = modeOf(m, 1);
    const Mode &c = modeOf(m, 2);

    for (int iter = 0; iter < 20000; ++iter) {
        Time sa = static_cast<Time>(iter % 50);
        Time sb = static_cast<Time>((iter * 7) % 59);
        Time sc = static_cast<Time>((iter * 13) % 55);
        profile.place(a, sa);
        profile.place(b, sb);
        profile.place(c, sc);
        profile.remove(b, sb);
        profile.remove(a, sa);
        profile.remove(c, sc);
    }

    for (Time s = 0; s < 64; ++s) {
        ASSERT_EQ(profile.usageUnits(0, s), 0) << "step " << s;
        ASSERT_EQ(profile.usageUnits(1, s), 0) << "step " << s;
        ASSERT_FALSE(profile.groupBusy(g, s)) << "step " << s;
    }
    // Canonical form: an empty profile is exactly one zero segment.
    EXPECT_EQ(profile.segments(), 1u);
    EXPECT_EQ(profile.intervals(g), 0u);
    // And a full-capacity mode fits at 0 again.
    EXPECT_EQ(profile.earliestStart(modeOf(m, 3), 0), 0);
}

} // anonymous namespace
} // namespace cp
} // namespace hilp
