/**
 * @file
 * The process-wide thread budget that arbitrates CPU slots between
 * the design-space sweep's threads and the solver's inner parallel
 * search.
 */

#ifndef HILP_SUPPORT_THREAD_BUDGET_HH
#define HILP_SUPPORT_THREAD_BUDGET_HH

#include <condition_variable>
#include <mutex>

namespace hilp {

/**
 * A counting semaphore over the machine's CPU slots, shared by every
 * layer that spawns threads. The convention: a thread that is
 * *running* work holds one slot (a solve runs under the slot of the
 * sweep thread that called it), and helpers beyond that are claimed
 * with tryAcquire before being spawned. A sweep's threads (its caller
 * included) hold a slot only while they run chains, so during a
 * sweep's tail the slots of drained sweep threads become available
 * to a hard inner solve instead of oversubscribing the machine.
 *
 * acquire() blocks until slots free up and is only used by sweep
 * threads (which always eventually get their slot back because every
 * borrower releases in bounded time); code on a solve path must use
 * the non-blocking tryAcquire and degrade to fewer threads.
 */
class ThreadBudget
{
  public:
    /** A budget of `total` slots (0 means hardware concurrency). */
    explicit ThreadBudget(int total = 0);

    ThreadBudget(const ThreadBudget &) = delete;
    ThreadBudget &operator=(const ThreadBudget &) = delete;

    /** The process-wide budget (hardware-concurrency slots). */
    static ThreadBudget &global();

    /** Total slots in the budget. */
    int total() const { return total_; }

    /** Currently unclaimed slots (a racy snapshot, for telemetry). */
    int available() const;

    /**
     * Claim up to `want` slots without blocking; returns how many
     * were granted (possibly 0).
     */
    int tryAcquire(int want);

    /** Claim exactly n slots, blocking until they are free. */
    void acquire(int n);

    /** Return n previously claimed slots. */
    void release(int n);

    /** RAII ownership of slots claimed from a budget. */
    class Lease
    {
      public:
        Lease() = default;
        Lease(ThreadBudget &budget, int count)
            : budget_(&budget), count_(count) {}
        ~Lease() { reset(); }

        Lease(Lease &&other) noexcept
            : budget_(other.budget_), count_(other.count_)
        {
            other.budget_ = nullptr;
            other.count_ = 0;
        }

        Lease &
        operator=(Lease &&other) noexcept
        {
            if (this != &other) {
                reset();
                budget_ = other.budget_;
                count_ = other.count_;
                other.budget_ = nullptr;
                other.count_ = 0;
            }
            return *this;
        }

        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;

        /** Slots held by this lease. */
        int count() const { return count_; }

        /** Release the held slots early. */
        void
        reset()
        {
            if (budget_ && count_ > 0)
                budget_->release(count_);
            budget_ = nullptr;
            count_ = 0;
        }

      private:
        ThreadBudget *budget_ = nullptr;
        int count_ = 0;
    };

    /** Claim up to `want` slots without blocking, as a lease. */
    Lease lease(int want) { return Lease(*this, tryAcquire(want)); }

  private:
    const int total_;
    mutable std::mutex mutex_;
    std::condition_variable freed_;
    int available_;
};

} // namespace hilp

#endif // HILP_SUPPORT_THREAD_BUDGET_HH
