/**
 * @file
 * LNS tests: the destroy/repair loop must be monotone (never return
 * a schedule worse than the starting incumbent) and always feasible,
 * across many random instances; the bounded B&B polish must be able
 * to pull a deliberately bad incumbent to the known optimum; and the
 * seed salt of a retried evaluation must change the destroy
 * trajectory of the engine's deadline-fallback pass.
 */

#include <gtest/gtest.h>

#include <string>

#include "cp/list_scheduler.hh"
#include "cp/lns.hh"
#include "cp/model.hh"
#include "cp/solver.hh"
#include "support/random.hh"

namespace hilp {
namespace cp {
namespace {

/** A contended multi-mode instance (same shape as the solver tests). */
Model
contendedModel(int tasks, uint64_t seed)
{
    Model m;
    m.addResource(4.0, "power");
    int g0 = m.addGroup("G0");
    int g1 = m.addGroup("G1");
    Rng rng(seed);
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

/**
 * The monotonicity differential: whatever the destroy operators and
 * the polish do, the returned schedule is feasible and no worse than
 * the incumbent that seeded the pass.
 */
class LnsMonotone : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(LnsMonotone, NeverWorseThanTheIncumbent)
{
    Model m = contendedModel(10, GetParam() * 131 + 5);
    ListResult greedy = bestGreedy(m, 4, 1);
    ASSERT_TRUE(greedy.feasible);

    LnsOptions options;
    options.iterations = 64;
    options.maxSeconds = 5.0;
    options.seed = GetParam();
    options.polishNodes = 500;
    LnsResult improved = lnsImprove(m, greedy.schedule, options);

    EXPECT_LE(improved.makespan, greedy.makespan);
    EXPECT_EQ(improved.makespan, improved.schedule.makespan(m));
    EXPECT_TRUE(checkSchedule(m, improved.schedule).empty());
    EXPECT_LE(improved.improvements, improved.iterations);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LnsMonotone,
                         ::testing::Range<uint64_t>(1, 21));

TEST(Lns, PolishPullsABadIncumbentToTheOptimum)
{
    // Two tasks, each CPU (5) or a shared device (2); the optimum
    // serializes both on the device for makespan 4. Seed LNS with
    // the worst reasonable incumbent: both tasks on the CPU path,
    // strictly sequential.
    Model m;
    int g = m.addGroup("G");
    for (int i = 0; i < 2; ++i) {
        Task t;
        t.modes.push_back({kNoGroup, 5, {}});
        t.modes.push_back({g, 2, {}});
        m.addTask(t);
    }
    m.setHorizon(20);

    ScheduleVec bad;
    bad.tasks = {{0, 0}, {0, 5}};
    ASSERT_TRUE(checkSchedule(m, bad).empty());
    ASSERT_EQ(bad.makespan(m), 10);

    LnsOptions options;
    options.iterations = 32;
    options.maxSeconds = 5.0;
    options.polishNodes = 2000;
    LnsResult improved = lnsImprove(m, bad, options);
    EXPECT_EQ(improved.makespan, 4);
    EXPECT_TRUE(checkSchedule(m, improved.schedule).empty());
}

TEST(Lns, GapStopSkipsTheWholePass)
{
    Model m = contendedModel(8, 42);
    ListResult greedy = bestGreedy(m, 4, 1);
    ASSERT_TRUE(greedy.feasible);

    // The incumbent already *is* the claimed lower bound: nothing to
    // improve, so the pass returns before any destroy/repair work.
    LnsOptions options;
    options.iterations = 64;
    options.lowerBound = greedy.makespan;
    options.targetGap = 0.0;
    LnsResult improved = lnsImprove(m, greedy.schedule, options);
    EXPECT_EQ(improved.makespan, greedy.makespan);
    EXPECT_EQ(improved.iterations, 0);
    EXPECT_EQ(improved.polishes, 0);
}

TEST(LnsTrajectory, DigestIsDeterministicForIdenticalOptions)
{
    Model m = contendedModel(10, 9);
    ListResult greedy = bestGreedy(m, 4, 1);
    ASSERT_TRUE(greedy.feasible);

    LnsOptions options;
    options.iterations = 32;
    options.maxSeconds = 5.0;
    options.seed = 7;
    LnsResult a = lnsImprove(m, greedy.schedule, options);
    LnsResult b = lnsImprove(m, greedy.schedule, options);
    ASSERT_GT(a.iterations, 0);
    EXPECT_NE(a.trajectoryDigest, 0u);
    EXPECT_EQ(a.trajectoryDigest, b.trajectoryDigest);

    // A different seed explores a different destroy sequence.
    options.seed = 8;
    LnsResult c = lnsImprove(m, greedy.schedule, options);
    EXPECT_NE(c.trajectoryDigest, a.trajectoryDigest);
}

TEST(LnsTrajectory, SeedSaltGivesTheRetryAFreshTrajectory)
{
    // The fault-isolation retry bug: a retried evaluation used to
    // replay the exact destroy sequence that just failed. The engine's
    // deadline fallback seeds its LNS pass from heuristicSeed of the
    // solver options, and the retry salts SolverOptions::seedSalt, so
    // the second attempt must walk a different trajectory - while a
    // zero salt keeps the unsalted seed and replays bit for bit.
    Model m = contendedModel(12, 4242);
    ListResult greedy = bestGreedy(m, 2, 1);
    ASSERT_TRUE(greedy.feasible);
    SolverOptions options;
    EXPECT_EQ(heuristicSeed(options), options.seed);

    LnsOptions lns;
    lns.iterations = 32;
    lns.maxSeconds = 5.0;
    lns.polishNodes = 512;
    lns.seed = heuristicSeed(options);
    LnsResult first = lnsImprove(m, greedy.schedule, lns);
    LnsResult replay = lnsImprove(m, greedy.schedule, lns);
    ASSERT_GT(first.iterations, 0);
    ASSERT_NE(first.trajectoryDigest, 0u);
    EXPECT_EQ(replay.trajectoryDigest, first.trajectoryDigest);
    EXPECT_EQ(replay.makespan, first.makespan);

    SolverOptions retry = options;
    retry.seedSalt = 0x9e3779b97f4a7c15ull; // Attempt-index salt.
    lns.seed = heuristicSeed(retry);
    LnsResult salted = lnsImprove(m, greedy.schedule, lns);
    EXPECT_NE(salted.trajectoryDigest, first.trajectoryDigest);
    EXPECT_LE(salted.makespan, greedy.makespan);
    EXPECT_TRUE(checkSchedule(m, salted.schedule).empty());
}

} // anonymous namespace
} // namespace cp
} // namespace hilp
