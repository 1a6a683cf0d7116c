/**
 * @file
 * Unit tests for the SolveMemo's byte-accounted LRU bound: the cap
 * is respected, eviction is least-recently-used (lookups refresh
 * recency), evicted keys recompute (miss, then re-insert fine), and
 * the unbounded default retains everything as before. Also covers
 * warm-start hints: served across salts, counted apart from hits and
 * misses, and dropped with their entry; and the lowering index,
 * whose records are byte-accounted and leave with their instance.
 */

#include <gtest/gtest.h>

#include <optional>

#include "hilp/engine.hh"

namespace hilp {
namespace {

EvalResult
resultWithMakespan(double makespan_s)
{
    EvalResult result;
    result.ok = true;
    result.makespanS = makespan_s;
    result.gap = 0.05;
    return result;
}

/** A successful result carrying a one-phase schedule. */
EvalResult
resultWithSchedule(double makespan_s, int start_step)
{
    EvalResult result = resultWithMakespan(makespan_s);
    ScheduledPhase phase;
    phase.startStep = start_step;
    phase.durationSteps = 1;
    result.schedule.phases.push_back(phase);
    return result;
}

TEST(SolveMemoLru, UnboundedByDefaultRetainsEverything)
{
    SolveMemo memo;
    EXPECT_EQ(memo.maxBytes(), 0u);
    for (uint64_t key = 0; key < 512; ++key)
        memo.insert(key, 0, resultWithMakespan(1.0 + key));
    EXPECT_EQ(memo.entries(), 512u);
    EXPECT_EQ(memo.evictions(), 0);
}

TEST(SolveMemoLru, ByteCapIsNeverExceeded)
{
    size_t one = SolveMemo::resultFootprintBytes(
        resultWithMakespan(1.0));
    SolveMemo memo(4 * one);
    for (uint64_t key = 0; key < 64; ++key) {
        memo.insert(key, 0, resultWithMakespan(1.0 + key));
        EXPECT_LE(memo.bytes(), memo.maxBytes())
            << "after insert " << key;
    }
    EXPECT_EQ(memo.entries(), 4u);
    EXPECT_EQ(memo.evictions(), 60);
}

TEST(SolveMemoLru, EvictionIsLeastRecentlyUsed)
{
    size_t one = SolveMemo::resultFootprintBytes(
        resultWithMakespan(1.0));
    SolveMemo memo(3 * one);
    memo.insert(1, 0, resultWithMakespan(1.0));
    memo.insert(2, 0, resultWithMakespan(2.0));
    memo.insert(3, 0, resultWithMakespan(3.0));

    // Touch key 1: key 2 becomes the least recently used.
    EvalResult out;
    ASSERT_TRUE(memo.lookup(1, 0, &out));

    memo.insert(4, 0, resultWithMakespan(4.0));
    EXPECT_TRUE(memo.lookup(1, 0, &out));
    EXPECT_FALSE(memo.lookup(2, 0, &out)) << "LRU key should be evicted";
    EXPECT_TRUE(memo.lookup(3, 0, &out));
    EXPECT_TRUE(memo.lookup(4, 0, &out));
}

TEST(SolveMemoLru, EvictedKeysRecomputeAndReinsert)
{
    size_t one = SolveMemo::resultFootprintBytes(
        resultWithMakespan(1.0));
    SolveMemo memo(2 * one);
    memo.insert(1, 0, resultWithMakespan(1.0));
    memo.insert(2, 0, resultWithMakespan(2.0));
    memo.insert(3, 0, resultWithMakespan(3.0)); // Evicts key 1.

    EvalResult out;
    EXPECT_FALSE(memo.lookup(1, 0, &out));
    // The "recompute" result lands like any fresh insert.
    memo.insert(1, 0, resultWithMakespan(1.5));
    ASSERT_TRUE(memo.lookup(1, 0, &out));
    EXPECT_DOUBLE_EQ(out.makespanS, 1.5);
    EXPECT_LE(memo.bytes(), memo.maxBytes());
}

TEST(SolveMemoLru, CacheHitStillZeroesEffortCounters)
{
    SolveMemo memo(1 << 20);
    EvalResult result = resultWithMakespan(2.0);
    result.totalNodes = 1234;
    result.solves = 3;
    memo.insert(7, 0, result);

    EvalResult out;
    ASSERT_TRUE(memo.lookup(7, 0, &out));
    EXPECT_TRUE(out.cacheHit);
    EXPECT_EQ(out.totalNodes, 0);
    EXPECT_EQ(out.solves, 0);
}

TEST(SolveMemoLru, SetMaxBytesEvictsImmediately)
{
    size_t one = SolveMemo::resultFootprintBytes(
        resultWithMakespan(1.0));
    SolveMemo memo;
    for (uint64_t key = 0; key < 10; ++key)
        memo.insert(key, 0, resultWithMakespan(1.0 + key));
    EXPECT_EQ(memo.entries(), 10u);

    memo.setMaxBytes(2 * one);
    EXPECT_LE(memo.bytes(), memo.maxBytes());
    EXPECT_EQ(memo.entries(), 2u);
}

TEST(SolveMemoLru, OversizedResultIsNotRetained)
{
    EvalResult result = resultWithMakespan(2.0);
    size_t one = SolveMemo::resultFootprintBytes(result);
    SolveMemo memo(one / 2);
    memo.insert(1, 0, result);
    EXPECT_EQ(memo.entries(), 0u);
    EXPECT_EQ(memo.bytes(), 0u);

    EvalResult out;
    EXPECT_FALSE(memo.lookup(1, 0, &out));
}

TEST(SolveMemoLru, ClearDropsEntriesButKeepsAccounting)
{
    SolveMemo memo(1 << 20);
    memo.insert(1, 0, resultWithMakespan(1.0));
    EvalResult out;
    ASSERT_TRUE(memo.lookup(1, 0, &out));
    int64_t hits = memo.hits();

    memo.clear();
    EXPECT_EQ(memo.entries(), 0u);
    EXPECT_EQ(memo.bytes(), 0u);
    EXPECT_FALSE(memo.lookup(1, 0, &out));
    EXPECT_EQ(memo.hits(), hits);
}

TEST(SolveMemoLru, LoweringRecordsNeedAnEntryAndCountInBytes)
{
    constexpr size_t kRecord = SolveMemo::kLoweringRecordBytes;
    const size_t one = SolveMemo::resultFootprintBytes(
        resultWithMakespan(1.0));
    SolveMemo memo;

    // No entry for instance 5 yet: nothing to index.
    memo.recordLowering(100, 5);
    EXPECT_EQ(memo.loweredInstance(100), std::nullopt);
    EXPECT_EQ(memo.bytes(), 0u);

    memo.insert(5, 1, resultWithMakespan(1.0));
    memo.recordLowering(100, 5);
    memo.recordLowering(100, 5); // Already recorded.
    memo.recordLowering(101, 5); // A second input set, same instance.
    EXPECT_EQ(memo.loweredInstance(100), 5u);
    EXPECT_EQ(memo.loweredInstance(101), 5u);
    EXPECT_EQ(memo.loweredInstance(102), std::nullopt);
    EXPECT_EQ(memo.bytes(), one + 2 * kRecord);
    EXPECT_EQ(memo.entries(), 1u);

    // Index lookups are no hits or misses; the lookup of the
    // instance they name counts one or the other.
    EXPECT_EQ(memo.hits(), 0);
    EXPECT_EQ(memo.misses(), 0);
    EvalResult out;
    EXPECT_FALSE(memo.lookup(5, 2, &out));
    EXPECT_EQ(memo.misses(), 1);
    ASSERT_TRUE(memo.lookup(5, 1, &out));
    EXPECT_TRUE(out.cacheHit);
    EXPECT_EQ(memo.hits(), 1);
}

TEST(SolveMemoLru, LoweringRecordsLeaveWithTheirInstance)
{
    constexpr size_t kRecord = SolveMemo::kLoweringRecordBytes;
    const size_t one = SolveMemo::resultFootprintBytes(
        resultWithMakespan(1.0));

    // Eviction: the least recently used instance takes its record
    // along, and an instance keeps its records while any salt stays.
    SolveMemo memo(2 * one + 2 * kRecord);
    memo.insert(1, 0, resultWithMakespan(1.0));
    memo.recordLowering(11, 1);
    memo.insert(2, 0, resultWithMakespan(2.0));
    memo.recordLowering(12, 2);
    EXPECT_EQ(memo.bytes(), 2 * one + 2 * kRecord);
    memo.insert(3, 0, resultWithMakespan(3.0)); // Evicts 1/0.
    EXPECT_EQ(memo.loweredInstance(11), std::nullopt);
    EXPECT_EQ(memo.loweredInstance(12), 2u);
    EXPECT_EQ(memo.bytes(), 2 * one + kRecord);
    memo.insert(2, 1, resultWithMakespan(2.0)); // Evicts 2/0.
    EXPECT_EQ(memo.loweredInstance(12), 2u);
    EXPECT_EQ(memo.bytes(), 2 * one + kRecord);

    // setMaxBytes: 3/0 is now the least recently used entry.
    memo.setMaxBytes(one + kRecord);
    EXPECT_EQ(memo.entries(), 1u);
    EXPECT_EQ(memo.loweredInstance(12), 2u);
    EXPECT_EQ(memo.bytes(), one + kRecord);
    memo.setMaxBytes(one);
    EXPECT_EQ(memo.entries(), 0u);
    EXPECT_EQ(memo.loweredInstance(12), std::nullopt);
    EXPECT_EQ(memo.bytes(), 0u);

    // A record is charged like an entry: one that does not fit
    // evicts, and its instance and the record itself go.
    memo.insert(4, 0, resultWithMakespan(4.0));
    EXPECT_EQ(memo.bytes(), one);
    memo.recordLowering(14, 4);
    EXPECT_EQ(memo.entries(), 0u);
    EXPECT_EQ(memo.loweredInstance(14), std::nullopt);
    EXPECT_EQ(memo.bytes(), 0u);

    // clear drops every record.
    memo.setMaxBytes(0);
    memo.insert(5, 0, resultWithMakespan(5.0));
    memo.recordLowering(15, 5);
    ASSERT_EQ(memo.loweredInstance(15), 5u);
    memo.clear();
    EXPECT_EQ(memo.loweredInstance(15), std::nullopt);
    EXPECT_EQ(memo.bytes(), 0u);
}

TEST(SolveMemoHint, IsServedUnderAnyOtherSalt)
{
    SolveMemo memo;
    memo.insert(5, 1, resultWithSchedule(2.0, 17));

    // Another salt misses as a result...
    EvalResult out;
    EXPECT_FALSE(memo.lookup(5, 2, &out));
    // ...but the instance's schedule still serves as a hint.
    Schedule hint;
    ASSERT_TRUE(memo.hint(5, &hint));
    ASSERT_EQ(hint.phases.size(), 1u);
    EXPECT_EQ(hint.phases[0].startStep, 17);

    // Other instances have no hint, and neither does an entry
    // without a schedule to offer.
    EXPECT_FALSE(memo.hint(6, &hint));
    EvalResult failed;
    memo.insert(7, 1, failed);
    memo.insert(8, 1, resultWithMakespan(3.0));
    EXPECT_FALSE(memo.hint(7, &hint));
    EXPECT_FALSE(memo.hint(8, &hint));
}

TEST(SolveMemoHint, LookupsAreNotHitsOrMisses)
{
    SolveMemo memo;
    memo.insert(5, 1, resultWithSchedule(2.0, 3));
    EvalResult out;
    ASSERT_TRUE(memo.lookup(5, 1, &out));
    EXPECT_FALSE(memo.lookup(5, 2, &out));
    ASSERT_EQ(memo.hits(), 1);
    ASSERT_EQ(memo.misses(), 1);

    Schedule hint;
    EXPECT_TRUE(memo.hint(5, &hint));
    EXPECT_TRUE(memo.hint(5, &hint));
    EXPECT_FALSE(memo.hint(9, &hint));
    EXPECT_EQ(memo.hits(), 1);
    EXPECT_EQ(memo.misses(), 1);
    EXPECT_EQ(memo.hintHits(), 2);
    EXPECT_EQ(memo.hintMisses(), 1);
}

TEST(SolveMemoHint, DisappearsWithItsEntry)
{
    const size_t one =
        SolveMemo::resultFootprintBytes(resultWithSchedule(1.0, 0));
    SolveMemo memo(2 * one);
    Schedule hint;

    // Eviction: instance 1 is least recently used when 3 arrives.
    memo.insert(1, 1, resultWithSchedule(1.0, 0));
    memo.insert(2, 1, resultWithSchedule(2.0, 0));
    ASSERT_TRUE(memo.hint(1, &hint));
    memo.insert(2, 2, resultWithSchedule(2.0, 0)); // Evicts 2/1.
    memo.insert(3, 1, resultWithSchedule(3.0, 0)); // Evicts 1/1.
    EXPECT_FALSE(memo.hint(1, &hint));
    // Instance 2 keeps its hint through its surviving salt.
    EXPECT_TRUE(memo.hint(2, &hint));

    // Shrinking the cap: instance 3 is now least recently used.
    memo.setMaxBytes(one);
    EXPECT_FALSE(memo.hint(3, &hint));
    EXPECT_TRUE(memo.hint(2, &hint));

    memo.clear();
    EXPECT_FALSE(memo.hint(2, &hint));
    EXPECT_EQ(memo.entries(), 0u);
}

} // anonymous namespace
} // namespace hilp
