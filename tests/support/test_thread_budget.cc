/** @file Unit tests for the thread budget. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "support/thread_budget.hh"

namespace hilp {
namespace {

TEST(ThreadBudget, DefaultsToHardwareConcurrency)
{
    ThreadBudget budget;
    EXPECT_GE(budget.total(), 1);
    EXPECT_EQ(budget.available(), budget.total());
    EXPECT_GE(ThreadBudget::global().total(), 1);
}

TEST(ThreadBudget, TryAcquireGrantsUpToAvailable)
{
    ThreadBudget budget(3);
    EXPECT_EQ(budget.tryAcquire(2), 2);
    EXPECT_EQ(budget.available(), 1);
    // Non-blocking: asking for more than remains grants the rest.
    EXPECT_EQ(budget.tryAcquire(5), 1);
    EXPECT_EQ(budget.available(), 0);
    EXPECT_EQ(budget.tryAcquire(1), 0);
    budget.release(3);
    EXPECT_EQ(budget.available(), 3);
}

TEST(ThreadBudget, TryAcquireOfNothingIsFree)
{
    ThreadBudget budget(2);
    EXPECT_EQ(budget.tryAcquire(0), 0);
    EXPECT_EQ(budget.tryAcquire(-3), 0);
    EXPECT_EQ(budget.available(), 2);
}

TEST(ThreadBudget, LeaseReleasesOnDestruction)
{
    ThreadBudget budget(4);
    {
        ThreadBudget::Lease lease = budget.lease(3);
        EXPECT_EQ(lease.count(), 3);
        EXPECT_EQ(budget.available(), 1);
        // Moving transfers ownership without double-release.
        ThreadBudget::Lease moved = std::move(lease);
        EXPECT_EQ(moved.count(), 3);
        EXPECT_EQ(budget.available(), 1);
    }
    EXPECT_EQ(budget.available(), 4);
}

TEST(ThreadBudget, AcquireBlocksUntilReleased)
{
    ThreadBudget budget(1);
    budget.acquire(1);
    std::atomic<bool> acquired{false};
    std::thread waiter([&] {
        budget.acquire(1); // Blocks until the main thread releases.
        acquired.store(true);
        budget.release(1);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(acquired.load());
    budget.release(1);
    waiter.join();
    EXPECT_TRUE(acquired.load());
    EXPECT_EQ(budget.available(), 1);
}

} // anonymous namespace
} // namespace hilp
