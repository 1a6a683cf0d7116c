/**
 * @file
 * Arena checkpoint/rewind round-trips (including spills across block
 * boundaries) and SmallVector spill semantics. The whole suite also
 * runs under the HILP_SANITIZE build, where the arena's manual ASan
 * poisoning turns any use-after-rewind into a hard failure.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "support/arena.hh"

namespace {

using hilp::support::Arena;
using hilp::support::SmallVector;

TEST(Arena, AllocatesDistinctAlignedMemory)
{
    Arena arena;
    char *a = static_cast<char *>(arena.alloc(13));
    char *b = static_cast<char *>(arena.alloc(1));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a, b);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
    // Sizes round up to the 8-byte granule.
    EXPECT_EQ(arena.bytesInUse(), 16u + 8u);
    std::memset(a, 0xab, 13);
    std::memset(b, 0xcd, 1);
}

TEST(Arena, CheckpointRewindRoundTrip)
{
    Arena arena;
    int *first = arena.allocArray<int>(4);
    first[0] = 42;
    size_t base = arena.bytesInUse();

    Arena::Checkpoint mark = arena.checkpoint();
    for (int i = 0; i < 100; ++i)
        arena.allocArray<double>(16);
    EXPECT_GT(arena.bytesInUse(), base);

    arena.rewind(mark);
    EXPECT_EQ(arena.bytesInUse(), base);
    EXPECT_EQ(first[0], 42); // Pre-checkpoint data survives.
    EXPECT_EQ(arena.rewinds(), 1);

    // The same bytes are handed out again: steady state allocates
    // nothing new from the heap.
    size_t heap = arena.heapBytes();
    for (int round = 0; round < 50; ++round) {
        Arena::Checkpoint again = arena.checkpoint();
        for (int i = 0; i < 100; ++i)
            arena.allocArray<double>(16);
        arena.rewind(again);
    }
    EXPECT_EQ(arena.heapBytes(), heap);
    EXPECT_EQ(arena.bytesInUse(), base);
}

TEST(Arena, RewindAcrossBlockBoundaries)
{
    // A tiny first block forces the chain to grow several times
    // between checkpoint and rewind.
    Arena arena(/*initial_block_bytes=*/32);
    char *keep = static_cast<char *>(arena.alloc(8));
    std::memset(keep, 0x5a, 8);

    Arena::Checkpoint mark = arena.checkpoint();
    std::vector<char *> scratch;
    for (int i = 0; i < 64; ++i) {
        char *p = static_cast<char *>(arena.alloc(24));
        std::memset(p, i, 24);
        scratch.push_back(p);
    }
    size_t grown_heap = arena.heapBytes();
    EXPECT_GT(grown_heap, 32u);

    arena.rewind(mark);
    EXPECT_EQ(arena.bytesInUse(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(keep[i], 0x5a);

    // Refill past the same boundaries: the cached blocks are reused,
    // so the heap footprint stays exactly where it was.
    for (int i = 0; i < 64; ++i)
        arena.alloc(24);
    EXPECT_EQ(arena.heapBytes(), grown_heap);
}

TEST(Arena, OversizedAllocationGetsItsOwnBlock)
{
    Arena arena(/*initial_block_bytes=*/64);
    arena.alloc(8);
    // Larger than any block in the chain so far.
    char *big = static_cast<char *>(arena.alloc(4096));
    std::memset(big, 0x11, 4096);
    EXPECT_GE(arena.heapBytes(), 4096u + 64u);
    arena.reset();
    EXPECT_EQ(arena.bytesInUse(), 0u);
}

TEST(Arena, HighWaterTracksPeakNotCurrent)
{
    Arena arena;
    Arena::Checkpoint mark = arena.checkpoint();
    arena.alloc(1000);
    size_t peak = arena.bytesInUse();
    arena.rewind(mark);
    EXPECT_EQ(arena.bytesInUse(), 0u);
    EXPECT_GE(arena.highWater(), peak);
    arena.alloc(8);
    EXPECT_GE(arena.highWater(), peak); // Never decreases.
}

TEST(Arena, ScopeRewindsOnAllExits)
{
    Arena arena;
    {
        Arena::Scope scope(arena);
        arena.alloc(256);
        EXPECT_GT(arena.bytesInUse(), 0u);
    }
    EXPECT_EQ(arena.bytesInUse(), 0u);

    // Nested scopes unwind LIFO.
    {
        Arena::Scope outer(arena);
        arena.alloc(64);
        {
            Arena::Scope inner(arena);
            arena.alloc(64);
            EXPECT_EQ(arena.bytesInUse(), 128u);
        }
        EXPECT_EQ(arena.bytesInUse(), 64u);
    }
    EXPECT_EQ(arena.bytesInUse(), 0u);
}

TEST(SmallVector, StaysInlineUpToN)
{
    SmallVector<int, 8> vec;
    for (int i = 0; i < 8; ++i)
        vec.push_back(i);
    EXPECT_EQ(vec.size(), 8u);
    EXPECT_FALSE(vec.spilled());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(vec[i], i);
}

TEST(SmallVector, SpillsToHeapWithoutArena)
{
    SmallVector<int, 4> vec;
    for (int i = 0; i < 100; ++i)
        vec.push_back(i);
    EXPECT_EQ(vec.size(), 100u);
    EXPECT_TRUE(vec.spilled());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(vec[i], i);
    vec.pop_back();
    EXPECT_EQ(vec.size(), 99u);
    EXPECT_EQ(vec.back(), 98);
    vec.clear();
    EXPECT_TRUE(vec.empty());
}

TEST(SmallVector, SpillsToArenaWhenAttached)
{
    Arena arena;
    SmallVector<int, 4> vec(&arena);
    for (int i = 0; i < 100; ++i)
        vec.push_back(i);
    EXPECT_TRUE(vec.spilled());
    EXPECT_GT(arena.bytesInUse(), 0u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(vec[i], i);
    // Growth is geometric, so the arena holds the abandoned smaller
    // generations too — bounded by ~2x the final capacity.
    EXPECT_GE(arena.bytesInUse(), vec.capacity() * sizeof(int));
}

TEST(SmallVector, ArenaSpillSurvivesManyCycles)
{
    // The engine trail's usage pattern: grow past the inline storage
    // once, then push/pop forever. After the first spill the arena
    // footprint must not move.
    Arena arena;
    SmallVector<int, 4> vec(&arena);
    for (int i = 0; i < 64; ++i)
        vec.push_back(i);
    size_t heap = arena.heapBytes();
    size_t in_use = arena.bytesInUse();
    for (int round = 0; round < 1000; ++round) {
        while (vec.size() > 2)
            vec.pop_back();
        while (vec.size() < 64)
            vec.push_back(static_cast<int>(vec.size()));
    }
    EXPECT_EQ(arena.heapBytes(), heap);
    EXPECT_EQ(arena.bytesInUse(), in_use);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(vec[i], i);
}

TEST(SmallVector, HoldsTrivialStructs)
{
    struct Entry
    {
        int task;
        const void *mode;
        long start;
    };
    Arena arena;
    SmallVector<Entry, 2> vec(&arena);
    for (int i = 0; i < 20; ++i)
        vec.push_back(Entry{i, nullptr, 10L * i});
    EXPECT_EQ(vec.size(), 20u);
    EXPECT_EQ(vec[19].task, 19);
    EXPECT_EQ(vec[19].start, 190L);
}

} // namespace
