/**
 * @file
 * Unit tests for the EvalService core: job-queue admission control
 * and priority ordering, equivalence of service sweeps with the
 * batch dse:: entry points, cross-request memo and warm-start hint
 * behavior, the cold reuse = false path, and the statsJson
 * observability shape.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <list>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "dse/explore.hh"
#include "service/eval_service.hh"
#include "workload/rodinia.hh"

namespace hilp {
namespace service {
namespace {

/**
 * Occupy every executor of the service so submitted jobs stay
 * queued until release() is called. Used to test admission control
 * deterministically.
 */
class ExecutorGate
{
  public:
    ExecutorGate(EvalService &service, int executors)
    {
        for (int i = 0; i < executors; ++i) {
            started_.emplace_back();
            auto &started = started_.back();
            Admission admission = service.submit([this, &started] {
                started.set_value();
                std::unique_lock<std::mutex> lock(mutex_);
                released_.wait(lock, [this] { return open_; });
            });
            EXPECT_TRUE(admission.accepted);
        }
        // Only return once every executor is actually blocked inside
        // a gate job, so later submissions cannot sneak into a free
        // executor.
        for (auto &started : started_)
            started.get_future().wait();
    }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            open_ = true;
        }
        released_.notify_all();
    }

  private:
    std::mutex mutex_;
    std::condition_variable released_;
    bool open_ = false;
    std::list<std::promise<void>> started_;
};

TEST(ServiceQueue, RunsJobsAndDrains)
{
    ServiceOptions options;
    options.executors = 2;
    EvalService service(options);

    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
        Admission admission = service.submit([&ran] { ++ran; });
        ASSERT_TRUE(admission.accepted) << admission.reason;
    }
    service.drain();
    EXPECT_EQ(ran.load(), 16);
    EXPECT_EQ(service.pendingJobs(), 0u);
}

TEST(ServiceQueue, HigherPriorityRunsFirstFifoTies)
{
    ServiceOptions options;
    options.executors = 1;
    EvalService service(options);
    ExecutorGate gate(service, 1);

    std::mutex order_mutex;
    std::vector<int> order;
    auto record = [&](int tag) {
        return [&, tag] {
            std::lock_guard<std::mutex> lock(order_mutex);
            order.push_back(tag);
        };
    };
    // Submission order: low(1), high(2), low(3), high(4).
    EXPECT_TRUE(service.submit(record(1), 0).accepted);
    EXPECT_TRUE(service.submit(record(2), 5).accepted);
    EXPECT_TRUE(service.submit(record(3), 0).accepted);
    EXPECT_TRUE(service.submit(record(4), 5).accepted);

    gate.release();
    service.drain();
    EXPECT_EQ(order, (std::vector<int>{2, 4, 1, 3}));
}

TEST(ServiceQueue, QueueFullRejectsWithReason)
{
    ServiceOptions options;
    options.executors = 1;
    options.maxQueueDepth = 2;
    EvalService service(options);
    ExecutorGate gate(service, 1);

    EXPECT_TRUE(service.submit([] {}).accepted);
    EXPECT_TRUE(service.submit([] {}).accepted);
    Admission rejected = service.submit([] {});
    EXPECT_FALSE(rejected.accepted);
    EXPECT_NE(rejected.reason.find("queue full"), std::string::npos)
        << rejected.reason;

    gate.release();
    service.drain();
    // Capacity is available again after the drain.
    EXPECT_TRUE(service.submit([] {}).accepted);
    service.drain();
}

TEST(ServiceQueue, ShutdownRejectsNewJobs)
{
    EvalService service;
    service.shutdown();
    Admission admission = service.submit([] {
        FAIL() << "job ran after shutdown";
    });
    EXPECT_FALSE(admission.accepted);
    EXPECT_NE(admission.reason.find("shutting down"),
              std::string::npos);
    service.shutdown(); // Idempotent.
}

TEST(ServiceQueue, ThrowingJobDoesNotKillExecutor)
{
    ServiceOptions options;
    options.executors = 1;
    EvalService service(options);
    EXPECT_TRUE(service.submit(
        [] { throw std::runtime_error("boom"); }).accepted);
    std::atomic<bool> ran{false};
    EXPECT_TRUE(service.submit([&ran] { ran = true; }).accepted);
    service.drain();
    EXPECT_TRUE(ran.load());
}

// --- Evaluation behavior ----------------------------------------------

arch::SocConfig
smallSoc(int cpus, int sms)
{
    arch::SocConfig config;
    config.cpuCores = cpus;
    config.gpuSms = sms;
    return config;
}

dse::DseOptions
fastHilpOptions()
{
    dse::DseOptions options;
    options.engine.solver.maxSeconds = 2.0;
    options.threads = 2;
    return options;
}

/** Sweep one HILP configuration through the service. */
dse::DsePoint
sweepOne(EvalService &service, const arch::SocConfig &config,
         const workload::Workload &wl, const dse::DseOptions &options)
{
    SweepRequest request;
    request.configs = {config};
    request.workload = wl;
    request.kind = dse::ModelKind::Hilp;
    request.options = options;
    std::vector<dse::DsePoint> points = service.sweep(request);
    EXPECT_EQ(points.size(), 1u);
    return points.empty() ? dse::DsePoint() : points.front();
}

TEST(ServiceEval, MatchesBatchEvaluatePoint)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    auto config = smallSoc(2, 16);
    dse::DseOptions options = fastHilpOptions();

    EvalService service;
    dse::DsePoint served = sweepOne(service, config, wl, options);
    dse::DsePoint batch = dse::evaluatePoint(
        config, wl, arch::Constraints{}, dse::ModelKind::Hilp,
        options);
    ASSERT_TRUE(served.ok);
    ASSERT_TRUE(batch.ok);
    // The certified result is identical; only cache effort differs.
    EXPECT_DOUBLE_EQ(served.makespanS, batch.makespanS);
    EXPECT_DOUBLE_EQ(served.areaMm2, batch.areaMm2);
    EXPECT_EQ(served.mix, batch.mix);
}

TEST(ServiceEval, RepeatEvalHitsSharedMemo)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    auto config = smallSoc(2, 4);
    dse::DseOptions options = fastHilpOptions();

    EvalService service;
    dse::DsePoint first = sweepOne(service, config, wl, options);
    ASSERT_TRUE(first.ok);
    EXPECT_FALSE(first.cacheHit);

    dse::DsePoint second = sweepOne(service, config, wl, options);
    ASSERT_TRUE(second.ok);
    EXPECT_TRUE(second.cacheHit);
    EXPECT_DOUBLE_EQ(second.makespanS, first.makespanS);
}

TEST(ServiceEval, DifferentEngineOptionsMissMemoButWarmStart)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    auto config = smallSoc(2, 4);
    dse::DseOptions options = fastHilpOptions();

    EvalService service;
    dse::DsePoint first = sweepOne(service, config, wl, options);
    ASSERT_TRUE(first.ok);
    EXPECT_EQ(service.memo().entries(), 1u);
    EXPECT_EQ(service.memo().hintHits(), 0);

    // A different solver budget digests differently: the memo key is
    // salted, so the cached result cannot be (unsoundly) returned.
    dse::DseOptions other = options;
    other.engine.solver.maxSeconds = 1.5;
    dse::DsePoint second = sweepOne(service, config, wl, other);
    ASSERT_TRUE(second.ok);
    EXPECT_FALSE(second.cacheHit);
    EXPECT_EQ(service.memo().hits(), 0);
    EXPECT_EQ(service.memo().misses(), 2);
    // The first solve's schedule, a hint under any options, seeds the
    // fresh solve instead.
    EXPECT_EQ(service.memo().hintHits(), 1);
    EXPECT_TRUE(second.warmStarted);
}

TEST(ServiceSweep, MatchesExploreSpaceAndStreamsPoints)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    SweepRequest request;
    request.configs = {smallSoc(1, 4), smallSoc(2, 4),
                       smallSoc(4, 4)};
    request.workload = wl;
    request.kind = dse::ModelKind::MultiAmdahl;
    request.options.threads = 2;

    std::mutex streamed_mutex;
    std::vector<std::string> streamed;
    request.onPoint = [&](const dse::DsePoint &point,
                          const Schedule *) {
        std::lock_guard<std::mutex> lock(streamed_mutex);
        streamed.push_back(point.config.name());
    };

    EvalService service;
    auto points = service.sweep(request);
    ASSERT_EQ(points.size(), request.configs.size());
    EXPECT_EQ(streamed.size(), points.size());

    auto batch = dse::exploreSpace(request.configs, wl,
                                   arch::Constraints{},
                                   dse::ModelKind::MultiAmdahl,
                                   request.options);
    ASSERT_EQ(batch.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        EXPECT_DOUBLE_EQ(points[i].makespanS, batch[i].makespanS);
        EXPECT_DOUBLE_EQ(points[i].areaMm2, batch[i].areaMm2);
    }
}

TEST(ServiceSweep, NoReuseSweepIsColdOnAWarmService)
{
    // reuse = false is the cold reference the reuse claims are
    // checked against: a service whose memo is warm from an earlier
    // sweep of the same configs must neither serve it a cached result
    // nor warm-start it, so its effort matches a fresh cold run.
    auto wl = workload::makeWorkload(workload::Variant::Default);
    SweepRequest request;
    request.configs = {smallSoc(1, 4), smallSoc(2, 4), smallSoc(2, 16),
                       smallSoc(4, 16)};
    request.workload = wl;
    request.kind = dse::ModelKind::Hilp;
    request.options = fastHilpOptions();
    // A node budget, not the clock, bounds every solve, so effort is
    // reproducible run to run.
    request.options.engine.solver.maxSeconds = 600.0;
    request.options.engine.solver.maxNodes = 20000;

    EvalService service;
    service.sweep(request);
    ASSERT_EQ(service.memo().entries(), request.configs.size());

    request.options.reuse = false;
    std::vector<dse::DsePoint> served = service.sweep(request);
    std::vector<dse::DsePoint> fresh = dse::exploreSpace(
        request.configs, wl, arch::Constraints{}, dse::ModelKind::Hilp,
        request.options);
    ASSERT_EQ(served.size(), fresh.size());
    int64_t nodes[2] = {0, 0};
    int64_t backtracks[2] = {0, 0};
    for (size_t i = 0; i < served.size(); ++i) {
        ASSERT_TRUE(served[i].ok) << i;
        EXPECT_FALSE(served[i].cacheHit) << i;
        EXPECT_FALSE(served[i].warmStarted) << i;
        EXPECT_DOUBLE_EQ(served[i].makespanS, fresh[i].makespanS) << i;
        nodes[0] += served[i].nodes;
        nodes[1] += fresh[i].nodes;
        backtracks[0] += served[i].backtracks;
        backtracks[1] += fresh[i].backtracks;
    }
    EXPECT_EQ(nodes[0], nodes[1]);
    EXPECT_EQ(backtracks[0], backtracks[1]);
}

TEST(ServiceStats, StatsJsonShape)
{
    ServiceOptions options;
    options.maxQueueDepth = 7;
    EvalService service(options);
    service.submit([] {});
    service.drain();

    Json stats = service.statsJson();
    ASSERT_NE(stats.find("version"), nullptr);
    ASSERT_NE(stats.find("uptime_s"), nullptr);
    const Json *memo = stats.find("memo");
    ASSERT_NE(memo, nullptr);
    for (const char *key : {"bytes", "max_bytes", "entries", "evictions",
                            "hits", "misses", "hit_rate", "hint_hits",
                            "hint_misses"})
        EXPECT_NE(memo->find(key), nullptr) << "memo." << key;
    EXPECT_EQ(memo->find("hint_hits")->intValue(), 0);
    EXPECT_EQ(memo->find("hint_misses")->intValue(), 0);
    const Json *queue = stats.find("queue");
    ASSERT_NE(queue, nullptr);
    EXPECT_EQ(queue->find("max_depth")->intValue(), 7);
    EXPECT_EQ(queue->find("accepted")->intValue(), 1);
    EXPECT_EQ(queue->find("completed")->intValue(), 1);
    EXPECT_EQ(queue->find("depth")->intValue(), 0);
    const Json *budget = stats.find("thread_budget");
    ASSERT_NE(budget, nullptr);
    EXPECT_GT(budget->find("total_slots")->intValue(), 0);
}

} // anonymous namespace
} // namespace service
} // namespace hilp
