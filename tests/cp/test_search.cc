/** @file Unit tests for the branch-and-bound search. */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "cp/list_scheduler.hh"
#include "cp/model.hh"
#include "cp/search.hh"
#include "support/random.hh"
#include "support/str.hh"

namespace hilp {
namespace cp {
namespace {

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

TEST(Search, FindsOptimumWithoutWarmStart)
{
    Model m = twoDeviceModel();
    SearchLimits limits;
    SearchResult r = branchAndBound(m, nullptr, limits);
    ASSERT_TRUE(r.foundSolution);
    EXPECT_TRUE(r.exhausted);
    EXPECT_EQ(r.bestMakespan, 4);
    EXPECT_EQ(checkSchedule(m, r.best), "");
}

TEST(Search, WarmStartOnlyImproves)
{
    Model m = twoDeviceModel();
    // A deliberately bad but feasible warm start: everything on A.
    ScheduleVec warm;
    warm.tasks = {{0, 0}, {0, 2}, {0, 4}, {0, 6}};
    ASSERT_EQ(checkSchedule(m, warm), "");
    SearchLimits limits;
    SearchResult r = branchAndBound(m, &warm, limits);
    ASSERT_TRUE(r.foundSolution);
    EXPECT_EQ(r.bestMakespan, 4);
    EXPECT_GE(r.solutions, 1);
}

TEST(Search, OptimalWarmStartIsKept)
{
    Model m = twoDeviceModel();
    ScheduleVec warm;
    warm.tasks = {{0, 0}, {1, 0}, {0, 2}, {1, 2}};
    ASSERT_EQ(checkSchedule(m, warm), "");
    SearchLimits limits;
    SearchResult r = branchAndBound(m, &warm, limits);
    ASSERT_TRUE(r.foundSolution);
    EXPECT_TRUE(r.exhausted);
    EXPECT_EQ(r.bestMakespan, 4);
    // No strictly better schedule exists, so no new incumbents.
    EXPECT_EQ(r.solutions, 0);
}

TEST(Search, NodeLimitStopsSearch)
{
    Model m = twoDeviceModel();
    SearchLimits limits;
    limits.maxNodes = 1;
    SearchResult r = branchAndBound(m, nullptr, limits);
    EXPECT_FALSE(r.exhausted);
    EXPECT_LE(r.nodes, 2);
}

TEST(Search, TargetGapStopsEarly)
{
    Model m = twoDeviceModel();
    ScheduleVec warm;
    warm.tasks = {{0, 0}, {1, 0}, {0, 2}, {1, 2}};
    SearchLimits limits;
    limits.targetGap = 0.5;
    limits.lowerBound = 3; // gap (4-3)/4 = 0.25 <= 0.5.
    SearchResult r = branchAndBound(m, &warm, limits);
    ASSERT_TRUE(r.foundSolution);
    EXPECT_FALSE(r.exhausted); // stopped by the gap, not exhaustion.
    EXPECT_EQ(r.nodes, 0);
}

TEST(Search, ProvesInfeasibilityByExhaustion)
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
    SearchResult r = branchAndBound(m, nullptr, limits);
    EXPECT_FALSE(r.foundSolution);
    EXPECT_TRUE(r.exhausted);
}

TEST(Search, PrecedenceAcrossDevicesHandled)
{
    // a (dev A, 3) -> b (dev B, 2); independent c (dev B, 4).
    // Optimum: c at 0 on B, a at 0 on A, b at 4 -> makespan 6.
    // (b at 3 would collide with c; b after c is 6.)
    Model m;
    int g1 = m.addGroup("A");
    int g2 = m.addGroup("B");
    Task a;
    a.modes.push_back({g1, 3, {}});
    m.addTask(a);
    Task b;
    b.modes.push_back({g2, 2, {}});
    m.addTask(b);
    Task c;
    c.modes.push_back({g2, 4, {}});
    m.addTask(c);
    m.addPrecedence(0, 1);
    m.setHorizon(20);
    SearchLimits limits;
    SearchResult r = branchAndBound(m, nullptr, limits);
    ASSERT_TRUE(r.foundSolution);
    EXPECT_TRUE(r.exhausted);
    EXPECT_EQ(r.bestMakespan, 6);
}

TEST(Search, CumulativeResourcePacking)
{
    // Capacity 2, four unit-usage tasks of 3 steps: two at a time,
    // optimum 6.
    Model m;
    m.addResource(2.0, "r");
    for (int i = 0; i < 4; ++i) {
        Task t;
        t.modes.push_back({kNoGroup, 3, {1.0}});
        m.addTask(t);
    }
    m.setHorizon(20);
    SearchLimits limits;
    SearchResult r = branchAndBound(m, nullptr, limits);
    ASSERT_TRUE(r.foundSolution);
    EXPECT_EQ(r.bestMakespan, 6);
    EXPECT_EQ(checkSchedule(m, r.best), "");
}

/**
 * Random multi-mode model with groups, a cumulative resource, and a
 * sparse precedence DAG - enough structure to force nontrivial
 * branching, mode ties, and backtracking.
 */
Model
randomModel(uint64_t seed)
{
    Rng rng(seed * 2654435761u + 11);
    Model m;
    m.addResource(rng.uniformDouble(1.0, 2.5), "power");
    int g1 = m.addGroup("A");
    int g2 = m.addGroup("B");
    int n = static_cast<int>(rng.uniformInt(5, 8));
    for (int i = 0; i < n; ++i) {
        Task t;
        t.name = format("t%d", i);
        int nm = static_cast<int>(rng.uniformInt(1, 3));
        for (int k = 0; k < nm; ++k) {
            double which = rng.uniformDouble();
            int g = which < 0.4 ? g1 : which < 0.8 ? g2 : kNoGroup;
            t.modes.push_back(
                {g, static_cast<Time>(rng.uniformInt(1, 4)),
                 {rng.uniformDouble(0.0, 1.2)}});
        }
        m.addTask(t);
    }
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (rng.chance(0.2))
                m.addPrecedence(i, j);
    m.setHorizon(6 * n);
    return m;
}

/** Node budget of the pinned runs that are not budget-limited. */
constexpr int64_t kUnbounded = 500000;

/** One recorded single-thread branch-and-bound run. */
struct PinnedRun
{
    uint64_t seed;
    int64_t maxNodes;
    int64_t nodes;
    int64_t backtracks;
    int64_t solutions;
    Time bestMakespan;
    bool exhausted;
    /** The best schedule as space-separated "mode@start" pairs. */
    const char *schedule;
};

/**
 * Single-thread search results on the random models: exact node,
 * backtrack and solution counts (a solution is a strict incumbent
 * improvement), the exhaustion flag, and the best schedule. Every
 * run records and prunes no-goods in its private store, so the
 * counts pin the store's pruning decisions too. The 1000-node budget
 * is deliberately not a multiple of the opportunistic workers'
 * 64-node batch, so a batched budget check would overshoot it.
 */
const PinnedRun kPinnedRuns[] = {
    {1, kUnbounded, 37, 6, 1, 8, true, "0@0 0@2 0@0 0@3 0@2 0@5"},
    {1, 1000, 37, 6, 1, 8, true, "0@0 0@2 0@0 0@3 0@2 0@5"},
    {2, kUnbounded, 40, 7, 1, 7, true, "0@0 1@0 0@3 1@4 1@2 1@0 0@4"},
    {2, 1000, 40, 7, 1, 7, true, "0@0 1@0 0@3 1@4 1@2 1@0 0@4"},
    {3, kUnbounded, 403, 223, 2, 8, true, "0@0 0@0 1@5 0@4 2@1 2@4 0@2 0@6"},
    {3, 1000, 403, 223, 2, 8, true, "0@0 0@0 1@5 0@4 2@1 2@4 0@2 0@6"},
    {4, kUnbounded, 264, 156, 2, 11, true, "0@0 0@0 0@0 0@2 0@8 1@8 0@4"},
    {4, 1000, 264, 156, 2, 11, true, "0@0 0@0 0@0 0@2 0@8 1@8 0@4"},
    {5, kUnbounded, 75, 40, 1, 8, true, "1@0 0@0 1@1 1@2 0@2 1@4 0@4 0@4"},
    {5, 1000, 75, 40, 1, 8, true, "1@0 0@0 1@1 1@2 0@2 1@4 0@4 0@4"},
    {6, kUnbounded, 171, 95, 2, 8, true, "0@0 0@0 0@2 2@2 0@4 1@6 0@4 1@7"},
    {6, 1000, 171, 95, 2, 8, true, "0@0 0@0 0@2 2@2 0@4 1@6 0@4 1@7"},
    {7, kUnbounded, 196, 75, 1, 5, true, "0@0 2@2 1@3 0@2 0@0 1@4"},
    {7, 1000, 196, 75, 1, 5, true, "0@0 2@2 1@3 0@2 0@0 1@4"},
    {8, kUnbounded, 25, 7, 1, 7, true, "0@0 0@0 1@0 0@3 1@3 2@5 0@6"},
    {8, 1000, 25, 7, 1, 7, true, "0@0 0@0 1@0 0@3 1@3 2@5 0@6"},
    {9, kUnbounded, 93, 50, 1, 6, true, "0@0 1@5 0@2 0@0 0@3 0@3"},
    {9, 1000, 93, 50, 1, 6, true, "0@0 1@5 0@2 0@0 0@3 0@3"},
    {10, kUnbounded, 1089, 594, 1, 10, true, "2@6 0@4 0@0 2@4 1@0 0@7 0@9 0@7"},
    {10, 1000, 1000, 534, 1, 10, false, "2@6 0@4 0@0 2@4 1@0 0@7 0@9 0@7"},
    {11, kUnbounded, 421, 181, 2, 8, true, "0@0 2@3 1@5 1@6 0@3 0@3 1@7 1@0"},
    {11, 1000, 421, 181, 2, 8, true, "0@0 2@3 1@5 1@6 0@3 0@3 1@7 1@0"},
    {12, kUnbounded, 79, 38, 1, 6, true, "0@3 0@0 0@5 2@0 2@3"},
    {12, 1000, 79, 38, 1, 6, true, "0@3 0@0 0@5 2@0 2@3"},
};

std::string
scheduleString(const ScheduleVec &schedule)
{
    std::string out;
    for (const Assignment &a : schedule.tasks)
        out += format("%s%d@%d", out.empty() ? "" : " ", a.mode,
                      a.start);
    return out;
}

/** Stable test-name suffix, e.g. "seed3_nogoods_budget". */
void
PrintTo(const PinnedRun &run, std::ostream *os)
{
    *os << format("seed%llu_nogoods_%s",
                  static_cast<unsigned long long>(run.seed),
                  run.maxNodes == kUnbounded ? "unbounded" : "budget");
}

class SearchPinned : public ::testing::TestWithParam<PinnedRun>
{};

/**
 * threads == 1 must reproduce the recorded trees bit for bit:
 * node, backtrack and solution counts, the exhaustion flag, and the
 * exact best schedule.
 */
TEST_P(SearchPinned, SerialSearchMatchesRecordedTree)
{
    const PinnedRun &pin = GetParam();
    Model m = randomModel(pin.seed);
    SearchLimits limits;
    limits.maxNodes = pin.maxNodes;
    limits.maxSeconds = 1e9; // Node-limited only, on any machine.
    SearchResult r = branchAndBound(m, nullptr, limits);

    ASSERT_TRUE(r.foundSolution);
    EXPECT_EQ(r.nodes, pin.nodes);
    EXPECT_EQ(r.backtracks, pin.backtracks);
    EXPECT_EQ(r.solutions, pin.solutions);
    EXPECT_EQ(r.bestMakespan, pin.bestMakespan);
    EXPECT_EQ(r.exhausted, pin.exhausted);
    EXPECT_EQ(scheduleString(r.best), pin.schedule);
    EXPECT_EQ(r.threadsUsed, 1);
}

/**
 * Random model with no precedence edges: every unscheduled task is
 * eligible at every node, so depth k always branches over n - k
 * tasks of `modes` modes each.
 */
Model
independentModel(uint64_t seed, int n, int modes)
{
    Rng rng(seed * 40503u + 7);
    Model m;
    m.addResource(rng.uniformDouble(1.0, 2.5), "power");
    int g1 = m.addGroup("A");
    int g2 = m.addGroup("B");
    for (int i = 0; i < n; ++i) {
        Task t;
        t.name = format("t%d", i);
        for (int k = 0; k < modes; ++k) {
            double which = rng.uniformDouble();
            int g = which < 0.4 ? g1 : which < 0.8 ? g2 : kNoGroup;
            t.modes.push_back(
                {g, static_cast<Time>(rng.uniformInt(1, 6)),
                 {rng.uniformDouble(0.0, 1.2)}});
        }
        m.addTask(t);
    }
    m.setHorizon(6 * n);
    return m;
}

/**
 * Each depth's branching vectors reach their size on the first visit
 * and are reused after that, so the scratch a walk grows is the same
 * at any budget past the first dive: a hundred times more nodes
 * allocate nothing more.
 */
TEST(Search, ScratchStopsGrowingOnceWarm)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        Model m = independentModel(seed, 14, 3);
        int64_t warm = -1;
        for (int64_t budget : {2000, 20000, 200000}) {
            SearchLimits limits;
            limits.maxNodes = budget;
            limits.maxSeconds = 1e9;
            SearchResult r = branchAndBound(m, nullptr, limits);
            EXPECT_GT(r.scratchBytes, 0) << budget;
            if (warm < 0)
                warm = r.scratchBytes;
            EXPECT_EQ(r.scratchBytes, warm) << budget;
        }
    }
}

/**
 * The single-thread walk is a deterministic DFS, so a larger node
 * budget explores a superset prefix of the same tree and must never
 * return a worse incumbent. A search that let a non-improving leaf
 * replace its incumbent (raising the bound it prunes against) fails
 * this at the budgets where that leaf is the last one visited.
 */
TEST(Search, LargerBudgetNeverReturnsWorseIncumbent)
{
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(seed);
        Model m = randomModel(seed);
        bool found = false;
        Time best = 0;
        for (int64_t budget = 1; budget <= 400; ++budget) {
            SearchLimits limits;
            limits.maxNodes = budget;
            limits.maxSeconds = 1e9;
            SearchResult r = branchAndBound(m, nullptr, limits);
            ASSERT_TRUE(r.foundSolution || !found) << budget;
            if (!r.foundSolution)
                continue;
            if (found) {
                ASSERT_LE(r.bestMakespan, best) << budget;
            }
            EXPECT_EQ(r.best.makespan(m), r.bestMakespan) << budget;
            found = true;
            best = r.bestMakespan;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchPinned,
                         ::testing::ValuesIn(kPinnedRuns));

} // anonymous namespace
} // namespace cp
} // namespace hilp
