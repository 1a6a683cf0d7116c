/**
 * @file
 * The sweep loop of dse::exploreSpace under concurrency: the calling
 * thread and its helpers claim chains from one counter, each holds a
 * thread-budget slot only while it runs chains, and a failure on any
 * of them is rethrown once every thread has joined. MultiAmdahl
 * sweeps keep each point cheap (every config is a chain of its own);
 * the hooks sleep to hold chains open.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "arch/design_space.hh"
#include "dse/explore.hh"
#include "support/thread_budget.hh"
#include "workload/rodinia.hh"

namespace hilp {
namespace dse {
namespace {

/** The first n configurations of the paper's design space. */
std::vector<arch::SocConfig>
firstConfigs(size_t n)
{
    std::vector<arch::SocConfig> space = arch::enumerateDesignSpace(
        arch::DesignSpace{}, workload::dsaPriorityOrder());
    space.resize(std::min(n, space.size()));
    return space;
}

/** Runs at construction and leaves at destruction: a live count. */
class Inside
{
  public:
    explicit Inside(std::atomic<int> &count) : count_(count) { ++count_; }
    ~Inside() { --count_; }

  private:
    std::atomic<int> &count_;
};

TEST(SweepLoop, AHelpersExceptionIsRethrownOnceEveryThreadJoined)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    const std::vector<arch::SocConfig> configs = firstConfigs(24);
    DseOptions options;
    options.threads = 4;
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> thrown{false};
    std::atomic<int> inside{0};
    auto sink = [&](const DsePoint &, const Schedule *) {
        Inside live(inside);
        if (std::this_thread::get_id() == caller) {
            // Hold the caller's chain until a helper has failed.
            for (int i = 0; i < 10000 && !thrown.load(); ++i)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return;
        }
        if (!thrown.exchange(true))
            throw std::runtime_error("sink failed on a helper");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    };
    try {
        exploreSpace(configs, wl, arch::Constraints{},
                     ModelKind::MultiAmdahl, options, sink);
        ADD_FAILURE() << "the helper's exception was lost";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "sink failed on a helper");
    }
    EXPECT_TRUE(thrown.load());
    // No sweep thread is still in a sink, and every slot came back.
    EXPECT_EQ(inside.load(), 0);
    EXPECT_EQ(ThreadBudget::global().available(),
              ThreadBudget::global().total());
}

TEST(SweepLoop, ThreadsRunChainsOnlyUnderABudgetSlot)
{
    ThreadBudget &budget = ThreadBudget::global();
    const int free_slots = std::min(2, budget.total());
    ThreadBudget::Lease elsewhere = budget.lease(budget.total() - free_slots);
    ASSERT_EQ(budget.available(), free_slots);

    auto wl = workload::makeWorkload(workload::Variant::Default);
    const std::vector<arch::SocConfig> configs = firstConfigs(24);
    DseOptions options;
    options.threads = 4;
    // A point runs from the hook at its start to its sink.
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    options.injectFault = [&](const arch::SocConfig &) {
        int now = ++running;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now))
            ;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    };
    auto points = exploreSpace(
        configs, wl, arch::Constraints{}, ModelKind::MultiAmdahl, options,
        [&](const DsePoint &, const Schedule *) { --running; });

    ASSERT_EQ(points.size(), configs.size());
    for (const DsePoint &point : points)
        EXPECT_TRUE(point.ok) << point.config.name();
    EXPECT_LE(peak.load(), free_slots);
    EXPECT_EQ(budget.available(), free_slots);
}

TEST(SweepLoop, AsManyConcurrentSweepsAsSlotsAllFinish)
{
    // Each caller takes a slot before it starts its helper. Once the
    // callers hold every slot, the helpers wait for one: a caller that
    // kept its slot while joining its helper would wait forever.
    ThreadBudget &budget = ThreadBudget::global();
    const int sweeps = budget.total();
    ThreadBudget::Lease held = budget.lease(sweeps);
    ASSERT_EQ(held.count(), sweeps);

    auto wl = workload::makeWorkload(workload::Variant::Default);
    const std::vector<arch::SocConfig> configs = firstConfigs(8);
    std::atomic<int> finished{0};
    std::vector<std::thread> callers;
    callers.reserve(static_cast<size_t>(sweeps));
    for (int s = 0; s < sweeps; ++s)
        callers.emplace_back([&] {
            DseOptions options;
            options.threads = 2;
            auto points = exploreSpace(
                configs, wl, arch::Constraints{}, ModelKind::MultiAmdahl,
                options, [](const DsePoint &, const Schedule *) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                });
            if (points.size() == configs.size())
                ++finished;
        });
    // Let every caller queue for a slot, then free them all at once.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    held.reset();
    for (std::thread &thread : callers)
        thread.join();
    EXPECT_EQ(finished.load(), sweeps);
    EXPECT_EQ(budget.available(), budget.total());
}

} // anonymous namespace
} // namespace dse
} // namespace hilp
