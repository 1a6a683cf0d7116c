#include "eval_service.hh"

#include <algorithm>
#include <utility>

#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/str.hh"
#include "support/thread_budget.hh"
#include "support/version.hh"

namespace hilp {
namespace service {

EvalService::EvalService(const ServiceOptions &options)
    : options_(options),
      started_(std::chrono::steady_clock::now()),
      memo_(options.memoMaxBytes)
{
    int executors = std::max(1, options_.executors);
    executors_.reserve(executors);
    for (int i = 0; i < executors; ++i)
        executors_.emplace_back([this] { executorLoop(); });
}

EvalService::~EvalService()
{
    shutdown();
}

std::vector<dse::DsePoint>
EvalService::sweep(const SweepRequest &request)
{
    dse::DseOptions options = request.options;
    options.memo = &memo_;
    return dse::exploreSpace(request.configs, request.workload,
                             request.constraints, request.kind,
                             options, request.onPoint,
                             request.traceId);
}

Admission
EvalService::submit(std::function<void()> job, int priority)
{
    Admission admission;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdown_) {
            admission.reason = "service is shutting down";
            rejected_.fetch_add(1, std::memory_order_relaxed);
            return admission;
        }
        if (queue_.size() >= options_.maxQueueDepth) {
            admission.reason =
                format("queue full: %zu jobs queued (limit %zu)",
                       queue_.size(), options_.maxQueueDepth);
            rejected_.fetch_add(1, std::memory_order_relaxed);
            return admission;
        }
        Job entry;
        entry.priority = priority;
        entry.seq = nextSeq_++;
        entry.enqueued = std::chrono::steady_clock::now();
        entry.fn = std::move(job);
        admission.accepted = true;
        admission.jobId = entry.seq;
        queue_.push(std::move(entry));
        accepted_.fetch_add(1, std::memory_order_relaxed);
        metrics::gauge("hilpd.queue.depth")
            .set(static_cast<double>(queue_.size()));
    }
    workAvailable_.notify_one();
    return admission;
}

void
EvalService::executorLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workAvailable_.wait(lock, [this] {
                return shutdown_ || !queue_.empty();
            });
            if (queue_.empty()) {
                if (shutdown_)
                    return;
                continue;
            }
            // priority_queue::top is const to protect the heap
            // order; moving the job out right before pop never
            // reorders anything, so the cast is safe here.
            job = std::move(const_cast<Job &>(queue_.top()));
            queue_.pop();
            ++running_;
            metrics::gauge("hilpd.queue.depth")
                .set(static_cast<double>(queue_.size()));
        }
        metrics::histogram("hilpd.queue.wait_us")
            .record(std::chrono::duration_cast<
                        std::chrono::microseconds>(
                        std::chrono::steady_clock::now() -
                        job.enqueued)
                        .count());
        try {
            job.fn();
        } catch (const std::exception &e) {
            warn("service: job %llu threw: %s",
                 static_cast<unsigned long long>(job.seq), e.what());
        } catch (...) {
            warn("service: job %llu threw an unknown exception",
                 static_cast<unsigned long long>(job.seq));
        }
        completed_.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --running_;
            if (queue_.empty() && running_ == 0)
                idle_.notify_all();
        }
    }
}

void
EvalService::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] {
        return queue_.empty() && running_ == 0;
    });
}

void
EvalService::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdown_) {
            // Already shut down (or shutting down elsewhere); the
            // join below must only happen once.
            return;
        }
        shutdown_ = true;
    }
    workAvailable_.notify_all();
    for (std::thread &executor : executors_)
        executor.join();
    executors_.clear();
}

size_t
EvalService::pendingJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size() + running_;
}

Json
EvalService::statsJson() const
{
    Json stats = Json::object();
    stats.set("version", versionJson());
    stats.set("uptime_s",
              Json::number(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - started_)
                               .count()));
    Json memo = Json::object();
    memo.set("bytes", Json::number(static_cast<int64_t>(memo_.bytes())));
    memo.set("max_bytes",
             Json::number(static_cast<int64_t>(memo_.maxBytes())));
    memo.set("entries",
             Json::number(static_cast<int64_t>(memo_.entries())));
    memo.set("evictions", Json::number(memo_.evictions()));
    const int64_t hits = memo_.hits();
    const int64_t misses = memo_.misses();
    memo.set("hits", Json::number(hits));
    memo.set("misses", Json::number(misses));
    memo.set("hit_rate",
             Json::number(hits + misses > 0
                              ? static_cast<double>(hits) /
                                    static_cast<double>(hits + misses)
                              : 0.0));
    // Warm-start hints served across engine options on memo misses;
    // counted apart so hit_rate stays the result-reuse rate.
    memo.set("hint_hits", Json::number(memo_.hintHits()));
    memo.set("hint_misses", Json::number(memo_.hintMisses()));
    stats.set("memo", std::move(memo));
    Json queue = Json::object();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue.set("depth",
                  Json::number(static_cast<int64_t>(queue_.size())));
        queue.set("running",
                  Json::number(static_cast<int64_t>(running_)));
    }
    queue.set("max_depth",
              Json::number(
                  static_cast<int64_t>(options_.maxQueueDepth)));
    queue.set("accepted", Json::number(accepted_.load()));
    queue.set("rejected", Json::number(rejected_.load()));
    queue.set("completed", Json::number(completed_.load()));
    stats.set("queue", queue);

    // Latency percentiles for every registered histogram (the
    // request breakdowns hilpd.request.* plus solver-side timings):
    // what an operator without a scraper sees via the stats op.
    Json latency = Json::object();
    for (const auto &[name, snap] : metrics::snapshotAll().histograms) {
        if (snap.count == 0)
            continue;
        Json entry = Json::object();
        entry.set("count", Json::number(snap.count));
        entry.set("mean", Json::number(snap.mean()));
        entry.set("p50", Json::number(snap.quantile(0.50)));
        entry.set("p95", Json::number(snap.quantile(0.95)));
        entry.set("p99", Json::number(snap.quantile(0.99)));
        entry.set("max", Json::number(snap.max));
        latency.set(name, std::move(entry));
    }
    stats.set("latency", std::move(latency));
    stats.set("flight_recorder", recorder_.statsJson());

    Json budget = Json::object();
    budget.set("total_slots",
               Json::number(static_cast<int64_t>(
                   ThreadBudget::global().total())));
    budget.set("available_slots",
               Json::number(static_cast<int64_t>(
                   ThreadBudget::global().available())));
    stats.set("thread_budget", budget);
    return stats;
}

Json
EvalService::healthJson() const
{
    Json health = Json::object();
    health.set("ok", Json::boolean(true));
    health.set("version", versionJson());
    health.set("uptime_s",
               Json::number(std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - started_)
                                .count()));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        health.set("queue_depth",
                   Json::number(static_cast<int64_t>(queue_.size())));
        health.set("running",
                   Json::number(static_cast<int64_t>(running_)));
    }
    health.set("memo_bytes",
               Json::number(static_cast<int64_t>(memo_.bytes())));
    return health;
}

} // namespace service
} // namespace hilp
