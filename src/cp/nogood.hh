/**
 * @file
 * No-good recording for the branch-and-bound search.
 *
 * The serial-SGS search keeps rediscovering the same subtrees: two
 * different decision *orders* that place the same (task, mode, start)
 * set reach the same search state (profile, eligible set, earliest
 * starts and node bound are all functions of the placement set). A
 * no-good caches what exploring such a state proved - "every
 * completion of this placement set has makespan >= bound" - keyed by
 * an order-independent Zobrist hash of the set, so a revisit through
 * a different permutation prunes instantly when the recorded bound
 * cannot beat the incumbent.
 *
 * Soundness of the recorded bounds:
 *  - A node cut by its node bound records that bound, which the
 *    pruning rules certify against any completion of the placements.
 *  - A fully explored node records the incumbent upper bound at
 *    backtrack time: every completion inside the subtree was either
 *    enumerated (and thus >= the final incumbent) or pruned against
 *    an incumbent that was at least as large, and the incumbent only
 *    ever decreases - so the claim stays valid for the rest of the
 *    search, including when the store is shared across parallel
 *    workers pruning against the shared incumbent.
 *  - A node whose budget/gap stop unwound it records nothing.
 *
 * The store is a bounded, sharded, set-associative table (a
 * transposition table in game-tree terms): fixed memory, lock-light
 * (one small mutex per shard, touched twice per node), and lossy by
 * design - eviction only loses pruning opportunities, never
 * soundness. Distinct placement sets colliding on the full 64-bit
 * key could in principle prune wrongly. A lookup compares at most
 * kWays keys, so a search of L lookups makes at most 4L comparisons,
 * each a false match with probability 2^-64 under a random-code
 * model (DESIGN.md section 11 puts a number on a full fig7 sweep).
 * The differential tests in tests/cp/test_nogood.cc hold the optimum
 * against an exhaustive oracle.
 */

#ifndef HILP_CP_NOGOOD_HH
#define HILP_CP_NOGOOD_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "model.hh"

namespace hilp {
namespace cp {

/**
 * The Zobrist code of one (task, mode, start) placement. XOR-ing the
 * codes of a placement set yields its order-independent key; the
 * same XOR applied again removes a placement, so the search keeps
 * the running key incrementally in O(1) per place/undo.
 */
uint64_t nogoodCode(int task, int mode, Time start);

/**
 * Bounded transposition-table store of no-goods. Thread-safe: the
 * parallel search shares one store across its workers (a recorded
 * bound is globally valid, see the file comment), while the
 * single-thread search resets its thread's own table, so its node
 * counts stay exactly reproducible.
 */
class NogoodStore
{
  public:
    /** Returned by lookup() when the key has no entry. */
    static constexpr Time kNoBound = -1;

    /**
     * Entries in every store, 16 bytes each (1 MiB). Bounded for the
     * whole search: a full bucket evicts its cheapest (deepest)
     * subtree.
     */
    static constexpr size_t kCapacity = size_t{1} << 16;

    NogoodStore();

    /**
     * The proven makespan bound recorded for this placement-set key,
     * or kNoBound. The caller prunes when the bound cannot beat its
     * current incumbent (bound >= ub).
     */
    Time lookup(uint64_t key) const;

    /**
     * Record "every completion of this placement set has makespan >=
     * bound". `placed` (the set's size) steers eviction: shallower
     * entries guard larger subtrees and are kept preferentially.
     * Re-recording a key keeps the stronger (larger) bound.
     */
    void record(uint64_t key, Time bound, int placed);

    /** Occupied entries (linear scan; telemetry and tests only). */
    int64_t size() const;

    /**
     * Forget every entry, so the store behaves exactly like a fresh
     * one. O(1) but once per 65,536 calls: it starts a new
     * generation, and entries of older generations read as empty.
     * Not thread-safe against concurrent lookups or records.
     */
    void reset();

  private:
    /**
     * placed == 0 marks an empty slot (real sets are non-empty), and
     * so does a generation other than the store's.
     */
    struct Entry
    {
        uint64_t key = 0;
        Time bound = 0;
        uint16_t placed = 0;
        uint16_t generation = 0;
    };
    static_assert(sizeof(Entry) == 16, "the table must stay 1 MiB");

    static constexpr size_t kWays = 4;
    static constexpr size_t kShards = 64;
    static constexpr size_t kBucketMask = kCapacity / kWays - 1;

    static size_t
    bucketOf(uint64_t key)
    {
        // The low bits index the bucket; kWays consecutive entries
        // form its ways.
        return (static_cast<size_t>(key) & kBucketMask) * kWays;
    }

    bool
    live(const Entry &e) const
    {
        return e.placed != 0 && e.generation == generation_;
    }

    std::vector<Entry> entries_;
    uint16_t generation_ = 0;
    mutable std::mutex shards_[kShards];
};

} // namespace cp
} // namespace hilp

#endif // HILP_CP_NOGOOD_HH
