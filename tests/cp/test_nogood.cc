/**
 * @file
 * No-good store unit tests plus randomized differential soundness
 * checks: the search, which always records and prunes no-goods, must
 * prove exactly the optimum (or the infeasibility) that exhaustive
 * enumeration finds, across many random models.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "cp/model.hh"
#include "cp/nogood.hh"
#include "cp/search.hh"
#include "cp/solver.hh"
#include "oracles/exhaustive.hh"
#include "support/random.hh"

namespace hilp {
namespace cp {
namespace {

TEST(Nogood, LookupOnEmptyStoreMisses)
{
    NogoodStore store;
    EXPECT_EQ(store.lookup(nogoodCode(0, 0, 0)), NogoodStore::kNoBound);
    EXPECT_EQ(store.size(), 0);
}

TEST(Nogood, RecordThenLookupReturnsBound)
{
    NogoodStore store;
    uint64_t key = nogoodCode(3, 1, 7);
    store.record(key, 42, 5);
    EXPECT_EQ(store.lookup(key), 42);
    EXPECT_EQ(store.size(), 1);
}

TEST(Nogood, RecordStrengthensExistingBound)
{
    NogoodStore store;
    uint64_t key = nogoodCode(1, 0, 2);
    store.record(key, 10, 3);
    store.record(key, 15, 3); // Stronger (higher) bound wins.
    EXPECT_EQ(store.lookup(key), 15);
    store.record(key, 5, 3); // Weaker bound must not regress it.
    EXPECT_EQ(store.lookup(key), 15);
    EXPECT_EQ(store.size(), 1);
}

TEST(Nogood, CodesDifferAcrossPlacements)
{
    std::set<uint64_t> codes;
    for (int task = 0; task < 8; ++task)
        for (int mode = 0; mode < 3; ++mode)
            for (Time start = 0; start < 16; ++start)
                codes.insert(nogoodCode(task, mode, start));
    EXPECT_EQ(codes.size(), 8u * 3u * 16u);
}

TEST(Nogood, EvictionDropsDeepestEntryInFullBucket)
{
    // The store is 4-way set-associative on the low key bits; five
    // crafted keys sharing a bucket overflow it, and the victim is
    // the deepest (largest placed count) entry - shallow no-goods
    // prune bigger subtrees and are worth keeping.
    NogoodStore store; // 2^14 buckets, mask 0x3fff.
    auto key = [](uint64_t i) { return (i << 14) | 0x3f; };
    store.record(key(1), 10, 1);
    store.record(key(2), 11, 2);
    store.record(key(3), 12, 9); // Deepest: the eviction victim.
    store.record(key(4), 13, 4);
    EXPECT_EQ(store.size(), 4);
    store.record(key(5), 14, 5);
    EXPECT_EQ(store.size(), 4);
    EXPECT_EQ(store.lookup(key(3)), NogoodStore::kNoBound);
    EXPECT_EQ(store.lookup(key(1)), 10);
    EXPECT_EQ(store.lookup(key(2)), 11);
    EXPECT_EQ(store.lookup(key(4)), 13);
    EXPECT_EQ(store.lookup(key(5)), 14);
}

TEST(Nogood, ResetForgetsEveryEntry)
{
    NogoodStore store;
    auto key = [](uint64_t i) { return (i << 14) | 0x3f; };
    for (uint64_t i = 1; i <= 4; ++i)
        store.record(key(i), 10, 1); // Fills one bucket.
    store.record(nogoodCode(3, 1, 7), 42, 5);
    ASSERT_EQ(store.size(), 5);

    store.reset();
    EXPECT_EQ(store.size(), 0);
    for (uint64_t i = 1; i <= 4; ++i)
        EXPECT_EQ(store.lookup(key(i)), NogoodStore::kNoBound);
    EXPECT_EQ(store.lookup(nogoodCode(3, 1, 7)), NogoodStore::kNoBound);

    // The stale ways read as empty: four new keys all fit the bucket,
    // however deep, as they would in a fresh store.
    for (uint64_t i = 5; i <= 8; ++i)
        store.record(key(i), 20, 9);
    for (uint64_t i = 5; i <= 8; ++i)
        EXPECT_EQ(store.lookup(key(i)), 20);
    EXPECT_EQ(store.size(), 4);

    // One full wrap of the generation counter must not revive them.
    for (int i = 0; i < 65536; ++i)
        store.reset();
    EXPECT_EQ(store.size(), 0);
    for (uint64_t i = 5; i <= 8; ++i)
        EXPECT_EQ(store.lookup(key(i)), NogoodStore::kNoBound);
}

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

SolverOptions
exactOptions()
{
    SolverOptions options;
    options.targetGap = 0.0;
    options.maxSeconds = 20.0;
    return options;
}

/**
 * A contended instance small enough for exhaustive enumeration: five
 * tasks, each on the CPUs (1.0 of the 3.0 power) or on one of two
 * devices (2.0 power), within a 7-step horizon. 14^5 candidates.
 */
Model
oracleSizedModel(uint64_t seed)
{
    Model m;
    m.addResource(3.0, "power");
    int g0 = m.addGroup("G0");
    int g1 = m.addGroup("G1");
    Rng rng(seed * 7919 + 3);
    for (int i = 0; i < 5; ++i) {
        Task t;
        t.name = "t" + std::to_string(i);
        t.modes.push_back({kNoGroup,
                           static_cast<Time>(rng.uniformInt(2, 3)),
                           {1.0}});
        t.modes.push_back({rng.chance(0.5) ? g0 : g1,
                           static_cast<Time>(rng.uniformInt(1, 2)),
                           {2.0}});
        m.addTask(t);
        if (i > 0 && rng.chance(0.3))
            m.addPrecedence(static_cast<int>(rng.uniformInt(0, i - 1)),
                            i);
    }
    m.setHorizon(7);
    return m;
}

/** The search from the root with no budget short of exhaustion. */
SearchResult
searchExhaustively(const Model &m)
{
    SearchLimits limits;
    limits.maxNodes = int64_t{1} << 40;
    limits.maxSeconds = 1e9;
    return branchAndBound(m, nullptr, limits);
}

/**
 * The soundness differential: the search must prove the optimum that
 * exhaustive enumeration finds, or the infeasibility it finds. A
 * learned bound that pruned the optimal branch would surface here as
 * a worse makespan; one that pruned every schedule, as a lost
 * solution.
 */
class NogoodDiff : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(NogoodDiff, NeverPrunesTheCertifiedOptimum)
{
    Model m = oracleSizedModel(GetParam());
    ExhaustiveResult oracle = solveExhaustively(m);
    ASSERT_TRUE(oracle.complete);
    SearchResult search = searchExhaustively(m);
    ASSERT_TRUE(search.exhausted);
    ASSERT_EQ(search.foundSolution, oracle.feasible);
    EXPECT_GT(search.nogoodsRecorded, 0);
    if (!oracle.feasible)
        return;
    EXPECT_EQ(search.bestMakespan, oracle.optimum);
    EXPECT_TRUE(checkSchedule(m, search.best).empty());
}

// Forty seeds: a no-good key that ignored a placement's start misses
// the optimum on two of seeds 1-40 but on none of seeds 1-20.
INSTANTIATE_TEST_SUITE_P(RandomInstances, NogoodDiff,
                         ::testing::Range<uint64_t>(1, 41));

TEST(Nogood, DiffModelsPruneByNogoods)
{
    // The differential above only tests the store if the store
    // prunes: some of its models must revisit a placement set whose
    // recorded bound cuts the revisit.
    int pruned = 0;
    for (uint64_t seed = 1; seed <= 40; ++seed)
        if (searchExhaustively(oracleSizedModel(seed)).nogoodHits > 0)
            ++pruned;
    EXPECT_GT(pruned, 0);
}

TEST(Nogood, SerialSearchWithNogoodsIsDeterministic)
{
    Model m = contendedModel(10, 12345);
    SolverOptions options = exactOptions();
    Result a = Solver(options).solve(m);
    Result b = Solver(options).solve(m);
    ASSERT_TRUE(a.hasSchedule());
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.stats.nodes, b.stats.nodes);
    EXPECT_EQ(a.stats.backtracks, b.stats.backtracks);
    EXPECT_EQ(a.stats.nogoodHits, b.stats.nogoodHits);
    EXPECT_EQ(a.stats.nogoodsRecorded, b.stats.nogoodsRecorded);
}

TEST(Nogood, TranspositionRichSearchRecordsAndHits)
{
    // Many interchangeable tasks contending for two devices: the
    // tree revisits placement sets in different orders, which is
    // exactly what the store prunes.
    Model m = contendedModel(12, 999);
    SearchLimits limits;
    limits.maxNodes = 200000;
    limits.maxSeconds = 20.0;
    SearchResult learned = branchAndBound(m, nullptr, limits);
    ASSERT_TRUE(learned.foundSolution);
    EXPECT_GT(learned.nogoodsRecorded, 0);
    EXPECT_GT(learned.nogoodHits, 0);
    EXPECT_EQ(checkSchedule(m, learned.best), "");
}

} // anonymous namespace
} // namespace cp
} // namespace hilp
