/** @file No-good store implementation. See nogood.hh. */

#include "nogood.hh"

#include <algorithm>

namespace hilp {
namespace cp {
namespace {

/**
 * splitmix64 finalizer: a full-avalanche 64-bit mixer, so the codes
 * of nearby placements (task 3 vs 4, start 10 vs 11) share no bit
 * structure and XOR combinations spread uniformly over the table.
 */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // anonymous namespace

uint64_t
nogoodCode(int task, int mode, Time start)
{
    // Pack the triple injectively (task and mode are small, start
    // fits 32 bits), then mix. Equal triples always produce equal
    // codes, which is all XOR-hashing needs.
    uint64_t packed = (static_cast<uint64_t>(static_cast<uint32_t>(task))
                       << 40) ^
                      (static_cast<uint64_t>(static_cast<uint32_t>(mode) &
                                             0xff)
                       << 32) ^
                      static_cast<uint64_t>(static_cast<uint32_t>(start));
    return mix64(packed);
}

NogoodStore::NogoodStore() : entries_(kCapacity) {}

Time
NogoodStore::lookup(uint64_t key) const
{
    const size_t base = bucketOf(key);
    std::lock_guard<std::mutex> lock(
        shards_[(base / kWays) & (kShards - 1)]);
    for (size_t w = 0; w < kWays; ++w) {
        const Entry &e = entries_[base + w];
        if (live(e) && e.key == key)
            return e.bound;
    }
    return kNoBound;
}

void
NogoodStore::record(uint64_t key, Time bound, int placed)
{
    if (placed <= 0)
        return;
    const uint16_t depth =
        placed > 0xffff ? 0xffff : static_cast<uint16_t>(placed);
    const size_t base = bucketOf(key);
    std::lock_guard<std::mutex> lock(
        shards_[(base / kWays) & (kShards - 1)]);
    Entry *victim = nullptr;
    for (size_t w = 0; w < kWays; ++w) {
        Entry &e = entries_[base + w];
        const bool used = live(e);
        if (used && e.key == key) {
            // Re-proved the same set: keep the stronger bound.
            if (bound > e.bound)
                e.bound = bound;
            return;
        }
        if (!used) {
            if (victim == nullptr || live(*victim))
                victim = &e;
        } else if (victim == nullptr ||
                   (live(*victim) &&
                    (e.placed > victim->placed ||
                     (e.placed == victim->placed &&
                      e.bound < victim->bound)))) {
            // Prefer evicting the deepest (cheapest-to-reprove)
            // entry; among equals, the weakest bound.
            victim = &e;
        }
    }
    victim->key = key;
    victim->bound = bound;
    victim->placed = depth;
    victim->generation = generation_;
}

int64_t
NogoodStore::size() const
{
    int64_t n = 0;
    for (size_t base = 0; base < entries_.size(); base += kWays) {
        std::lock_guard<std::mutex> lock(
            shards_[(base / kWays) & (kShards - 1)]);
        for (size_t w = 0; w < kWays; ++w)
            if (live(entries_[base + w]))
                ++n;
    }
    return n;
}

void
NogoodStore::reset()
{
    // On the wrap, entries of the generation about to be reused
    // would come back to life: clear the table instead.
    if (++generation_ == 0)
        std::fill(entries_.begin(), entries_.end(), Entry{});
}

} // namespace cp
} // namespace hilp
