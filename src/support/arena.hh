/**
 * @file
 * Bump-pointer arena with LIFO checkpoint/rewind, plus an inline
 * small-vector that spills into an arena.
 *
 * The CP search touches a small amount of scratch memory at every
 * node (branch orders, option lists, trail entries) and frees all of
 * it on backtrack, in exactly reverse order. A general-purpose heap
 * is the wrong tool for that pattern: each node pays malloc/free
 * churn and the scratch scatters across the heap. The Arena turns
 * the whole discipline into pointer arithmetic — alloc() bumps a
 * pointer inside a block, checkpoint()/rewind() snapshot and restore
 * it — so a search node's scratch is contiguous, hot in cache, and
 * free to release. Blocks are chained and never returned to the
 * heap until the arena dies, which is what makes the steady state
 * allocation-free: after warm-up, rewinding re-uses the same bytes
 * forever.
 *
 * Under AddressSanitizer the arena manually poisons everything
 * outside the live bump range, so a use-after-rewind (reading
 * scratch that a backtrack already released) is reported exactly
 * like a heap use-after-free would be.
 */

#ifndef HILP_SUPPORT_ARENA_HH
#define HILP_SUPPORT_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "logging.hh"

/*
 * Manual ASan poisoning: everything in a block that is not inside
 * the live bump range reads as poisoned, so a stale pointer into
 * rewound scratch trips the sanitizer exactly like a heap
 * use-after-free. Allocation sizes are rounded to 8 bytes (the ASan
 * shadow granule), so a poison edge never lands inside an
 * allocation.
 */
#if defined(__SANITIZE_ADDRESS__)
#define HILP_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HILP_ARENA_ASAN 1
#endif
#endif

#ifdef HILP_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#define HILP_ARENA_POISON(ptr, size) \
    ASAN_POISON_MEMORY_REGION(ptr, size)
#define HILP_ARENA_UNPOISON(ptr, size) \
    ASAN_UNPOISON_MEMORY_REGION(ptr, size)
#else
#define HILP_ARENA_POISON(ptr, size) ((void)(ptr), (void)(size))
#define HILP_ARENA_UNPOISON(ptr, size) ((void)(ptr), (void)(size))
#endif

namespace hilp {
namespace support {

class Arena
{
  public:
    /** Size of the first block; later blocks double. */
    explicit Arena(size_t initial_block_bytes = size_t{1} << 12);

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate `bytes` (suitably aligned for any scalar type; sizes
     * are rounded up to 8 bytes so ASan poison granules never split
     * an allocation). Never fails short of the system allocator
     * failing. The bump fast path is inline: the search performs a
     * handful of these per node.
     */
    void *
    alloc(size_t bytes)
    {
        bytes = roundUp(bytes ? bytes : kGranule);
        if (blocks_.empty() || blocks_[cur_].used + bytes >
                                   blocks_[cur_].size)
            ensure(bytes);
        Block &block = blocks_[cur_];
        char *ptr = block.data.get() + block.used;
        block.used += bytes;
        inUse_ += bytes;
        if (inUse_ > highWater_)
            highWater_ = inUse_;
        HILP_ARENA_UNPOISON(ptr, bytes);
        return ptr;
    }

    /** Typed array allocation. T must be trivially copyable. */
    template <typename T>
    T *
    allocArray(size_t count)
    {
        static_assert(std::is_trivially_copyable<T>::value,
                      "arena arrays hold trivially copyable types");
        static_assert(alignof(T) <= 8,
                      "arena alignment is 8 bytes");
        return static_cast<T *>(alloc(count * sizeof(T)));
    }

    /**
     * A position in the arena. Only LIFO discipline is supported:
     * rewinding to a checkpoint releases everything allocated after
     * it, and invalidates any checkpoint taken after it.
     */
    struct Checkpoint
    {
        uint32_t block = 0;
        size_t used = 0;
    };

    Checkpoint
    checkpoint() const
    {
        Checkpoint mark;
        mark.block = static_cast<uint32_t>(cur_);
        mark.used = blocks_.empty() ? 0 : blocks_[cur_].used;
        return mark;
    }

    /**
     * Release everything allocated after `mark` (LIFO). The common
     * case — the mark lives in the current block, which a per-node
     * Scope always hits — stays inline.
     */
    void
    rewind(Checkpoint mark)
    {
        hilp_assert(blocks_.empty() || mark.block <= cur_);
        ++rewinds_;
        if (blocks_.empty())
            return;
        if (mark.block < cur_) {
            rewindBlocks(mark);
            return;
        }
        Block &block = blocks_[cur_];
        hilp_assert(mark.used <= block.used);
        inUse_ -= block.used - mark.used;
        HILP_ARENA_POISON(block.data.get() + mark.used,
                          block.used - mark.used);
        block.used = mark.used;
    }

    /** Release everything; blocks stay cached for reuse. */
    void reset();

    /** RAII checkpoint/rewind. */
    class Scope
    {
      public:
        explicit Scope(Arena &arena)
            : arena_(arena), mark_(arena.checkpoint())
        {}

        ~Scope() { arena_.rewind(mark_); }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Arena &arena_;
        Checkpoint mark_;
    };

    /** Live bytes (allocated and not yet rewound). */
    size_t bytesInUse() const { return inUse_; }

    /** Maximum bytesInUse() ever observed. */
    size_t highWater() const { return highWater_; }

    /** Total bytes this arena has obtained from the heap. */
    size_t heapBytes() const { return heapBytes_; }

    /** rewind()/reset() calls performed. */
    int64_t rewinds() const { return rewinds_; }

  private:
    struct Block
    {
        std::unique_ptr<char[]> data;
        size_t size = 0;
        size_t used = 0;
    };

    /** ASan shadow granule; also the arena's alignment. */
    static constexpr size_t kGranule = 8;

    static size_t
    roundUp(size_t bytes)
    {
        return (bytes + kGranule - 1) & ~(kGranule - 1);
    }

    /** Make blocks_[cur_] able to hold `bytes` more. */
    void ensure(size_t bytes);

    /** Slow rewind path: the mark lies in an earlier block. */
    void rewindBlocks(Checkpoint mark);

    std::vector<Block> blocks_;
    size_t cur_ = 0;
    size_t nextBlockSize_;
    size_t inUse_ = 0;
    size_t highWater_ = 0;
    size_t heapBytes_ = 0;
    int64_t rewinds_ = 0;
};

/**
 * A vector with N elements of inline storage that spills to an Arena
 * (or, with no arena attached, to the heap) when it outgrows them.
 * Only the operations the solver hot paths need; T must be trivially
 * copyable so growth is one memcpy. Spilled arena storage is
 * intentionally leaked into the arena on regrowth — growth is
 * geometric, the arena reclaims everything wholesale, and the
 * attached arena must therefore outlive the vector and never be
 * rewound past the vector's allocations while it is live.
 */
template <typename T, size_t N>
class SmallVector
{
    static_assert(std::is_trivially_copyable<T>::value,
                  "SmallVector holds trivially copyable types");

  public:
    explicit SmallVector(Arena *spill = nullptr)
        : data_(reinterpret_cast<T *>(inline_)),
          arena_(spill)
    {}

    ~SmallVector()
    {
        if (heap_)
            ::operator delete(data_);
    }

    SmallVector(const SmallVector &) = delete;
    SmallVector &operator=(const SmallVector &) = delete;

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t capacity() const { return cap_; }

    /** True when the contents live outside the inline buffer. */
    bool spilled() const
    {
        return data_ != reinterpret_cast<const T *>(inline_);
    }

    T &operator[](size_t i) { return data_[i]; }
    const T &operator[](size_t i) const { return data_[i]; }
    T &back() { return data_[size_ - 1]; }
    const T &back() const { return data_[size_ - 1]; }
    T *data() { return data_; }
    const T *data() const { return data_; }
    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    void
    push_back(const T &value)
    {
        if (size_ == cap_)
            grow();
        data_[size_++] = value;
    }

    void pop_back() { --size_; }
    void clear() { size_ = 0; }

  private:
    void
    grow()
    {
        size_t new_cap = cap_ * 2;
        T *moved;
        if (arena_) {
            moved = arena_->allocArray<T>(new_cap);
        } else {
            moved = static_cast<T *>(
                ::operator new(new_cap * sizeof(T)));
        }
        std::memcpy(static_cast<void *>(moved), data_,
                    size_ * sizeof(T));
        if (heap_)
            ::operator delete(data_);
        heap_ = arena_ == nullptr;
        data_ = moved;
        cap_ = new_cap;
    }

    T *data_;
    size_t size_ = 0;
    size_t cap_ = N;
    Arena *arena_;
    bool heap_ = false;
    alignas(8) char inline_[N * sizeof(T)];
};

} // namespace support
} // namespace hilp

#endif // HILP_SUPPORT_ARENA_HH
