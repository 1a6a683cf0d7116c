/**
 * @file
 * Differential tests for the work-stealing parallel branch-and-bound
 * against the single-thread search. With targetGap == 0 both must prove
 * the same optimum (or the same infeasibility): the parallel search
 * explores a different node set, but the set of schedules covered is
 * identical, so foundSolution / exhausted / bestMakespan must match
 * exactly for every thread count.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "cp/list_scheduler.hh"
#include "cp/model.hh"
#include "cp/search.hh"
#include "support/random.hh"

namespace hilp {
namespace cp {
namespace {

/**
 * A random multi-mode scheduling instance: a few device groups and
 * cumulative resources, tasks with 1-3 modes, a sparse precedence
 * DAG (edges only i -> j with i < j), occasional start lags. The
 * horizon is tight enough that some seeds are infeasible, so the
 * differential also covers exhaustion without a solution.
 */
Model
randomModel(uint64_t seed)
{
    Rng rng(seed * 9176 + 31);
    Model m;
    m.addResource(rng.uniformDouble(1.0, 2.5), "r0");
    if (rng.chance(0.5))
        m.addResource(rng.uniformDouble(0.5, 1.5), "r1");
    int groups = static_cast<int>(rng.uniformInt(2, 3));
    std::vector<int> gids;
    for (int g = 0; g < groups; ++g)
        gids.push_back(m.addGroup());

    int n = static_cast<int>(rng.uniformInt(6, 8));
    Time total = 0;
    for (int t = 0; t < n; ++t) {
        Task task;
        int num_modes = static_cast<int>(rng.uniformInt(1, 3));
        Time longest = 0;
        for (int k = 0; k < num_modes; ++k) {
            Mode mode;
            mode.group = rng.chance(0.8)
                ? gids[static_cast<size_t>(
                      rng.uniformInt(0, groups - 1))]
                : kNoGroup;
            mode.duration = static_cast<Time>(rng.uniformInt(1, 5));
            mode.usage.push_back(rng.uniformDouble(0.0, 1.2));
            if (m.numResources() > 1)
                mode.usage.push_back(rng.uniformDouble(0.0, 0.9));
            longest = std::max(longest, mode.duration);
            task.modes.push_back(mode);
        }
        total += longest;
        m.addTask(task);
    }
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (rng.chance(0.25)) {
                if (rng.chance(0.15))
                    m.addStartLag(i, j,
                                  static_cast<Time>(
                                      rng.uniformInt(1, 3)));
                else
                    m.addPrecedence(i, j);
            }
    // Tight enough to make some seeds infeasible, loose enough that
    // most have schedules.
    m.setHorizon(std::max<Time>(8, total * 2 / 3));
    return m;
}

SearchLimits
exhaustiveLimits()
{
    SearchLimits limits;
    limits.targetGap = 0.0;
    limits.maxNodes = 50'000'000;
    limits.maxSeconds = 120.0;
    return limits;
}

class ParallelDiff : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ParallelDiff, MatchesSerialOptimum)
{
    Model m = randomModel(GetParam());
    SearchResult serial = branchAndBound(m, nullptr,
                                         exhaustiveLimits());
    ASSERT_TRUE(serial.exhausted)
        << "reference run must prove optimality";

    for (int threads : {2, 4, 8}) {
        SearchLimits limits = exhaustiveLimits();
        limits.threads = threads;
        SearchResult par = branchAndBound(m, nullptr, limits);
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        EXPECT_EQ(par.threadsUsed, threads);
        EXPECT_EQ(par.foundSolution, serial.foundSolution);
        EXPECT_EQ(par.exhausted, serial.exhausted);
        if (serial.foundSolution) {
            EXPECT_EQ(par.bestMakespan, serial.bestMakespan);
            EXPECT_EQ(checkSchedule(m, par.best), "");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDiff,
                         ::testing::Range<uint64_t>(1, 13));

class ParallelWarmDiff : public ::testing::TestWithParam<uint64_t>
{};

/** Warm-started runs must also land on the serial optimum. */
TEST_P(ParallelWarmDiff, MatchesSerialOptimumFromWarmStart)
{
    Model m = randomModel(GetParam());
    SearchResult serial = branchAndBound(m, nullptr,
                                         exhaustiveLimits());
    if (!serial.foundSolution)
        GTEST_SKIP() << "infeasible seed has no warm start";
    ASSERT_TRUE(serial.exhausted);
    ScheduleVec warm = serial.best;

    for (int threads : {2, 8}) {
        SearchLimits limits = exhaustiveLimits();
        limits.threads = threads;
        SearchResult par = branchAndBound(m, &warm, limits);
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        ASSERT_TRUE(par.foundSolution);
        EXPECT_TRUE(par.exhausted);
        EXPECT_EQ(par.bestMakespan, serial.bestMakespan);
        // The warm start is already optimal: no improvements.
        EXPECT_EQ(par.solutions, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelWarmDiff,
                         ::testing::Range<uint64_t>(1, 7));

Model
twoDeviceModel()
{
    // Four tasks, each 2 steps on either of two devices: optimum 4.
    Model m;
    int g1 = m.addGroup("A");
    int g2 = m.addGroup("B");
    for (int i = 0; i < 4; ++i) {
        Task t;
        t.modes.push_back({g1, 2, {}});
        t.modes.push_back({g2, 2, {}});
        m.addTask(t);
    }
    m.setHorizon(20);
    return m;
}

TEST(ParallelSearch, FindsOptimumOnAllThreadCounts)
{
    Model m = twoDeviceModel();
    for (int threads : {2, 3, 4, 8}) {
        SearchLimits limits;
        limits.threads = threads;
        SearchResult r = branchAndBound(m, nullptr, limits);
        SCOPED_TRACE(threads);
        ASSERT_TRUE(r.foundSolution);
        EXPECT_TRUE(r.exhausted);
        EXPECT_EQ(r.bestMakespan, 4);
        EXPECT_EQ(checkSchedule(m, r.best), "");
    }
}

TEST(ParallelSearch, ProvesInfeasibilityByExhaustion)
{
    Model m;
    int g = m.addGroup("G");
    for (int i = 0; i < 3; ++i) {
        Task t;
        t.modes.push_back({g, 3, {}});
        m.addTask(t);
    }
    m.setHorizon(8); // needs 9 steps on one device.
    SearchLimits limits;
    limits.threads = 4;
    SearchResult r = branchAndBound(m, nullptr, limits);
    EXPECT_FALSE(r.foundSolution);
    EXPECT_TRUE(r.exhausted);
}

TEST(ParallelSearch, TargetGapSkipsSearchLikeSerial)
{
    Model m = twoDeviceModel();
    ScheduleVec warm;
    warm.tasks = {{0, 0}, {1, 0}, {0, 2}, {1, 2}};
    SearchLimits limits;
    limits.threads = 4;
    limits.targetGap = 0.5;
    limits.lowerBound = 3; // gap (4-3)/4 = 0.25 <= 0.5.
    SearchResult r = branchAndBound(m, &warm, limits);
    ASSERT_TRUE(r.foundSolution);
    EXPECT_FALSE(r.exhausted);
    EXPECT_EQ(r.nodes, 0);
    EXPECT_EQ(r.bestMakespan, 4);
}

TEST(ParallelSearch, ReportsWorkDistributionTelemetry)
{
    Model m = randomModel(2);
    SearchLimits limits = exhaustiveLimits();
    limits.threads = 4;
    SearchResult r = branchAndBound(m, nullptr, limits);
    EXPECT_EQ(r.threadsUsed, 4);
    // The root split alone publishes subproblems on any instance
    // with more than one feasible first decision.
    EXPECT_GT(r.subproblems, 0);
    EXPECT_GT(r.nodes, 0);
    // Rule stats aggregate across workers: each node-bound rule is
    // reported once per name, with summed counters.
    ASSERT_FALSE(r.propagators.empty());
    for (size_t i = 0; i < r.propagators.size(); ++i)
        for (size_t j = i + 1; j < r.propagators.size(); ++j)
            EXPECT_NE(r.propagators[i].name, r.propagators[j].name);
}

/**
 * Termination-protocol stress: on tiny trees with many workers,
 * almost all of a run is spent at the claim/exhaustion boundary —
 * the last few subproblems are claimed while the rest of the crew
 * races the pending == 0 check. Any protocol that can declare
 * exhaustion while a claimed subtree is still unexplored shows up
 * here as a wrong makespan or a missed solution with
 * exhausted == true. Repetition widens the interleaving coverage.
 */
TEST(ParallelSearch, TerminationStressOnTinyTrees)
{
    Model feasible = twoDeviceModel();
    Model infeasible;
    int g = infeasible.addGroup("G");
    for (int i = 0; i < 3; ++i) {
        Task t;
        t.modes.push_back({g, 3, {}});
        infeasible.addTask(t);
    }
    infeasible.setHorizon(8);

    for (int rep = 0; rep < 200; ++rep) {
        SearchLimits limits;
        limits.threads = 8;
        SearchResult r = branchAndBound(feasible, nullptr, limits);
        SCOPED_TRACE(rep);
        ASSERT_TRUE(r.foundSolution);
        ASSERT_TRUE(r.exhausted);
        ASSERT_EQ(r.bestMakespan, 4);

        SearchResult inf =
            branchAndBound(infeasible, nullptr, limits);
        ASSERT_FALSE(inf.foundSolution);
        ASSERT_TRUE(inf.exhausted);
    }
}

/**
 * No-good differential under concurrency: a crew's shared store must
 * prove the optimum and the exhaustion verdict of the single-thread
 * search with its private store, at any thread count. A racy
 * publication or an unsound shared bound shows up here - and under
 * TSan, which runs this binary - as a wrong makespan.
 */
class NogoodParallelDiff : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(NogoodParallelDiff, MatchesSerialOptimumWithSharedStore)
{
    Model m = randomModel(GetParam() * 37 + 7);
    SearchResult serial = branchAndBound(m, nullptr,
                                         exhaustiveLimits());
    ASSERT_TRUE(serial.exhausted);

    for (int threads : {2, 8}) {
        SearchLimits limits = exhaustiveLimits();
        limits.threads = threads;
        SearchResult par = branchAndBound(m, nullptr, limits);
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        EXPECT_EQ(par.foundSolution, serial.foundSolution);
        EXPECT_EQ(par.exhausted, serial.exhausted);
        if (serial.foundSolution) {
            EXPECT_EQ(par.bestMakespan, serial.bestMakespan);
            EXPECT_EQ(checkSchedule(m, par.best), "");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NogoodParallelDiff,
                         ::testing::Range<uint64_t>(1, 9));

/** A big contended instance no 8-worker run finishes in 100 ms. */
Model
hardModel(int tasks, uint64_t seed)
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
 * Mid-flight deadline-cut stress: with eight workers deep in a large
 * tree, an expiring deadline must cut every loop - subtree walks and
 * the steal/backoff wait - promptly, and the run must still publish
 * the best cross-worker incumbent. Before the fix,
 * workers parked in waitForWork spun past the deadline and runs
 * could hang until maxSeconds.
 */
TEST(ParallelSearch, DeadlineCutsEightWorkerSearchMidFlight)
{
    using Clock = std::chrono::steady_clock;
    Model m = hardModel(18, 4242);
    ListResult greedy = bestGreedy(m, 4, 1);
    ASSERT_TRUE(greedy.feasible);

    SearchLimits limits;
    limits.threads = 8;
    limits.maxNodes = 1'000'000'000;
    limits.maxSeconds = 120.0;
    limits.deadline = Clock::now() + std::chrono::milliseconds(100);
    Clock::time_point t0 = Clock::now();
    SearchResult r = branchAndBound(m, &greedy.schedule, limits);
    double elapsed = std::chrono::duration<double>(
        Clock::now() - t0).count();
    // Generous margin over the 100 ms budget: the cut only has to
    // beat the 120 s fallback, not be instant, but anything past a
    // few seconds means some loop ignored the deadline.
    EXPECT_LT(elapsed, 10.0);
    ASSERT_TRUE(r.foundSolution);
    EXPECT_LE(r.bestMakespan, greedy.makespan);
    EXPECT_EQ(checkSchedule(m, r.best), "");
}

TEST(ParallelSearch, AlreadyExpiredDeadlineStillReturnsIncumbent)
{
    using Clock = std::chrono::steady_clock;
    Model m = hardModel(14, 99);
    ListResult greedy = bestGreedy(m, 4, 1);
    ASSERT_TRUE(greedy.feasible);

    SearchLimits limits;
    limits.threads = 8;
    limits.deadline = Clock::now();
    Clock::time_point t0 = Clock::now();
    SearchResult r = branchAndBound(m, &greedy.schedule, limits);
    double elapsed = std::chrono::duration<double>(
        Clock::now() - t0).count();
    EXPECT_LT(elapsed, 10.0);
    ASSERT_TRUE(r.foundSolution);
    EXPECT_FALSE(r.exhausted);
    EXPECT_LE(r.bestMakespan, greedy.makespan);
    EXPECT_EQ(checkSchedule(m, r.best), "");
}

TEST(ParallelSearch, SerialPathIgnoresParallelKnobs)
{
    // threads == 1 runs the single-worker search: no crew, no
    // stealing, no published subproblems.
    Model m = twoDeviceModel();
    SearchLimits limits;
    limits.threads = 1;
    SearchResult r = branchAndBound(m, nullptr, limits);
    ASSERT_TRUE(r.foundSolution);
    EXPECT_TRUE(r.exhausted);
    EXPECT_EQ(r.bestMakespan, 4);
    EXPECT_EQ(r.threadsUsed, 1);
    EXPECT_EQ(r.steals, 0);
    EXPECT_EQ(r.subproblems, 0);
}

} // anonymous namespace
} // namespace cp
} // namespace hilp
