/**
 * @file
 * The evaluation service: the long-lived state behind the hilpd
 * daemon and the bench binaries' in-process sweeps. It owns
 *
 *  - a byte-bounded, concurrent SolveMemo shared across requests.
 *    Entries are keyed by instance and engine options, so differing
 *    requests never observe each other's results, while a request
 *    that misses still warm-starts from the instance's schedule
 *    under other options (SolveMemo::hint). Sweeps with reuse off
 *    bypass it entirely; and
 *  - an async job queue with admission control: bounded depth,
 *    priority ordering, reject-with-reason when full.
 *
 * The sweep itself is dse::exploreSpace; sweep() only hands it the
 * service's memo, the request's point sink and its trace id.
 *
 * Threading: jobs run on a small executor crew; each sweep runs on
 * its executor thread plus helper threads, all drawing on the
 * process-wide ThreadBudget exactly as the batch path does, so
 * daemon sweeps and inner parallel solves arbitrate cores instead of
 * oversubscribing. Per-request deadlines ride the existing
 * EngineOptions::pointTimeoutS degradation path.
 */

#ifndef HILP_SERVICE_EVAL_SERVICE_HH
#define HILP_SERVICE_EVAL_SERVICE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "dse/explore.hh"
#include "flight_recorder.hh"
#include "hilp/engine.hh"
#include "support/json.hh"

namespace hilp {
namespace service {

/** Sizing and admission-control knobs for a service instance. */
struct ServiceOptions
{
    /**
     * Executor threads draining the async job queue. Each job is one
     * request (an eval or a whole sweep); the parallelism *inside* a
     * sweep comes from its own budget-arbitrated pool, so a small
     * crew suffices.
     */
    int executors = 2;
    /** Byte cap for the shared SolveMemo (0 = unbounded). */
    size_t memoMaxBytes = 256ull << 20;
    /**
     * Admission control: jobs queued (accepted but not yet running)
     * beyond this depth are rejected with a reason.
     */
    size_t maxQueueDepth = 64;
};

/**
 * One sweep request: the full input of dse::exploreSpace plus an
 * optional per-point stream sink.
 */
struct SweepRequest
{
    std::vector<arch::SocConfig> configs;
    workload::Workload workload;
    arch::Constraints constraints;
    dse::ModelKind kind = dse::ModelKind::Hilp;
    dse::DseOptions options;
    /**
     * Called once per completed point, from sweep worker threads
     * (callers serialize internally; see dse::PointSink). This is
     * how the daemon streams sweep results back per-point as they
     * finish.
     */
    dse::PointSink onPoint;
    /**
     * The request's trace context (trace::newTraceId(); 0 = none),
     * stamped on the sweep's spans and points (see exploreSpace).
     */
    uint64_t traceId = 0;
};

/** Outcome of submitting an async job. */
struct Admission
{
    bool accepted = false;
    std::string reason;  //!< Why the job was rejected (when not).
    uint64_t jobId = 0;  //!< Assigned id (when accepted).
};

class EvalService
{
  public:
    explicit EvalService(const ServiceOptions &options = {});
    ~EvalService();

    EvalService(const EvalService &) = delete;
    EvalService &operator=(const EvalService &) = delete;

    /**
     * Run a sweep synchronously on the calling thread:
     * dse::exploreSpace with the service-owned memo as
     * DseOptions::memo (replacing any the request names), so reuse
     * carries across requests.
     */
    std::vector<dse::DsePoint> sweep(const SweepRequest &request);

    /**
     * Queue a job for the executor crew. Admission control: rejects
     * (with a reason) when the queue is at maxQueueDepth or the
     * service is shutting down. Higher priority runs first; ties in
     * submission order. The job runs exactly once.
     */
    Admission submit(std::function<void()> job, int priority = 0);

    /** Block until every accepted job has finished. */
    void drain();

    /**
     * Stop accepting jobs, drain the queue, and join the executors.
     * Idempotent; the destructor also calls it.
     */
    void shutdown();

    /** Jobs accepted and not yet finished (queued + running). */
    size_t pendingJobs() const;

    SolveMemo &memo() { return memo_; }
    FlightRecorder &flightRecorder() { return recorder_; }

    /**
     * Service observability snapshot: uptime, build version, memo
     * occupancy and hit rates, queue accounting, latency
     * histogram percentiles, flight-recorder occupancy, and the
     * thread-budget state. The daemon's `stats` response.
     */
    Json statsJson() const;

    /**
     * The /healthz body: a small liveness snapshot (queue depth,
     * memo bytes, version, uptime) cheap enough to poll every
     * second.
     */
    Json healthJson() const;

  private:
    struct Job
    {
        int priority = 0;
        uint64_t seq = 0;
        std::chrono::steady_clock::time_point enqueued;
        std::function<void()> fn;

        bool
        operator<(const Job &other) const
        {
            // priority_queue surfaces the *largest*; higher priority
            // first, then earlier submission.
            if (priority != other.priority)
                return priority < other.priority;
            return seq > other.seq;
        }
    };

    void executorLoop();

    const ServiceOptions options_;
    const std::chrono::steady_clock::time_point started_;
    SolveMemo memo_;
    FlightRecorder recorder_;

    mutable std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::condition_variable idle_;
    std::priority_queue<Job> queue_;
    std::vector<std::thread> executors_;
    size_t running_ = 0;
    uint64_t nextSeq_ = 0;
    bool shutdown_ = false;
    std::atomic<int64_t> accepted_{0};
    std::atomic<int64_t> rejected_{0};
    std::atomic<int64_t> completed_{0};
};

} // namespace service
} // namespace hilp

#endif // HILP_SERVICE_EVAL_SERVICE_HH
