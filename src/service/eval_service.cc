#include "eval_service.hh"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "baselines/gables.hh"
#include "baselines/multiamdahl.hh"
#include "dse/checkpoint.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/str.hh"
#include "support/thread_pool.hh"
#include "support/trace.hh"
#include "support/version.hh"

namespace hilp {
namespace service {

using dse::DseOptions;
using dse::DsePoint;
using dse::ModelKind;
using dse::classifyAccelMix;

namespace {

/**
 * Sweep-wide record of completed (area, makespan) points with an
 * atomic best-makespan fast path. A config whose certified makespan
 * lower bound is beaten by an already-completed point of no more
 * area can never reach the Pareto front, so its solve may stop
 * refining early (the result keeps its certified gap either way).
 */
class SweepBound
{
  public:
    void
    add(double area_mm2, double makespan_s)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            points_.emplace_back(area_mm2, makespan_s);
        }
        // Atomic running minimum of all completed makespans.
        double best = bestMakespanS_.load();
        while (makespan_s < best &&
               !bestMakespanS_.compare_exchange_weak(best, makespan_s))
            ;
    }

    /**
     * True when a completed point with area <= area_mm2 finishes
     * strictly sooner than this config could ever prove (its
     * certified lower bound).
     */
    bool
    dominates(double area_mm2, double lower_bound_s) const
    {
        // Fast reject without the lock: nothing anywhere in the
        // sweep beats this bound yet.
        if (bestMakespanS_.load() >= lower_bound_s)
            return false;
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[area, makespan] : points_)
            if (area <= area_mm2 && makespan < lower_bound_s)
                return true;
        return false;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<std::pair<double, double>> points_;
    std::atomic<double> bestMakespanS_{
        std::numeric_limits<double>::infinity()};
};

void
fillSolverTelemetry(DsePoint &point, const EvalResult &result)
{
    point.status = result.status;
    point.gap = result.gap;
    point.nodes = result.totalNodes;
    point.backtracks = result.totalBacktracks;
    point.solves = result.solves;
    point.solveSeconds = result.totalSeconds;
    point.cacheHit = result.cacheHit;
    point.warmStarted = result.warmStarted;
    point.pruned = result.prunedEarly;
    point.degraded = result.degraded;
    point.propagators = result.propagators;
}

/**
 * The evaluatePoint worker body. `reuse` (nullable) threads the
 * sweep's cross-config context into the HILP engine; on success
 * `schedule_out` (nullable) receives the solved schedule so chains
 * can warm-start their next configuration.
 */
DsePoint
evaluatePointBody(const arch::SocConfig &config,
                  const workload::Workload &workload,
                  const arch::Constraints &constraints, ModelKind kind,
                  const DseOptions &options, const EvalReuse *reuse,
                  Schedule *schedule_out)
{
    DsePoint point;
    point.config = config;
    point.areaMm2 = config.areaMm2();
    point.mix = classifyAccelMix(config);

    ProblemSpec spec =
        buildProblem(workload, config, constraints, options.build);
    point.fingerprint = spec.fingerprint();

    // A point a previous (interrupted) run already completed is
    // served from the checkpoint: the certified result comes back,
    // and a HILP record's persisted schedule stays available via
    // lookupSchedule for the sweep's warm-start chains.
    if (options.checkpoint &&
        options.checkpoint->lookup(
            dse::checkpointKey(point.fingerprint, config.name(), kind),
            &point)) {
        point.config = config;
        point.areaMm2 = config.areaMm2();
        point.mix = classifyAccelMix(config);
        return point;
    }

    // After the checkpoint shortcut: the injected fault stands in
    // for a crash inside the evaluation, which a resumed point never
    // reaches.
    if (options.injectFault)
        options.injectFault(config);

    std::string invalid = spec.validate();
    if (!invalid.empty()) {
        // Unschedulable under these budgets; keep the reason so the
        // report can tell this apart from a solver failure.
        point.note = invalid;
        return point;
    }

    double reference = workload::sequentialCpuTimeS(workload);

    switch (kind) {
      case ModelKind::MultiAmdahl: {
        baselines::MaResult ma = baselines::evaluateMultiAmdahl(spec);
        if (!ma.ok) {
            point.note = "MultiAmdahl found no feasible sequential "
                         "placement";
            return point;
        }
        point.ok = true;
        point.makespanS = ma.makespanS;
        point.averageWlp = ma.averageWlp();
        point.gap = 0.0;
        point.status = cp::SolveStatus::Optimal;
        break;
      }
      case ModelKind::Hilp: {
        EvalResult result = reuse
            ? evaluate(spec, options.engine, *reuse)
            : evaluate(spec, options.engine);
        fillSolverTelemetry(point, result);
        if (!result.ok) {
            point.note = format("solver gave up: %s",
                                cp::toString(result.status));
            return point;
        }
        point.ok = true;
        point.makespanS = result.makespanS;
        point.averageWlp = result.averageWlp;
        if (schedule_out)
            *schedule_out = std::move(result.schedule);
        break;
      }
      case ModelKind::Gables: {
        EvalResult result =
            baselines::evaluateGables(spec, options.engine);
        fillSolverTelemetry(point, result);
        if (!result.ok) {
            point.note = format("solver gave up: %s",
                                cp::toString(result.status));
            return point;
        }
        point.ok = true;
        point.makespanS = result.makespanS;
        point.averageWlp = result.averageWlp;
        break;
      }
    }
    if (point.makespanS > 0.0)
        point.speedup = reference / point.makespanS;
    return point;
}

/**
 * Tracing/metrics wrapper around evaluatePointBody: one span per
 * design point so a sweep's trace shows the per-point timeline on
 * each worker thread, plus sweep-progress counters.
 */
DsePoint
evaluatePointImpl(const arch::SocConfig &config,
                  const workload::Workload &workload,
                  const arch::Constraints &constraints, ModelKind kind,
                  const DseOptions &options, const EvalReuse *reuse,
                  Schedule *schedule_out)
{
    trace::Span span("dse.point");
    if (trace::enabled())
        span.arg(trace::Arg::strArg("config", config.name()));
    DsePoint point = evaluatePointBody(config, workload, constraints,
                                       kind, options, reuse,
                                       schedule_out);
    span.arg(trace::Arg::intArg("ok", point.ok ? 1 : 0));
    span.arg(trace::Arg::intArg("cache_hit", point.cacheHit ? 1 : 0));
    span.arg(trace::Arg::intArg("degraded", point.degraded ? 1 : 0));
    span.arg(trace::Arg::intArg("resumed", point.resumed ? 1 : 0));
    metrics::counter("dse.points").add(1);
    if (point.ok)
        metrics::counter("dse.points.ok").add(1);
    if (point.degraded)
        metrics::counter("dse.points.degraded").add(1);
    if (point.resumed)
        metrics::counter("dse.points.resumed").add(1);
    return point;
}

/**
 * Fault-isolating wrapper around evaluatePointImpl for sweep
 * workers. A throwing evaluation no longer costs the sweep: the
 * point is retried once with a quarter of the node budget (the
 * common transient failures - allocation pressure, budget-dependent
 * pathologies - often clear under a smaller footprint), and a second
 * failure is recorded as an errored point carrying the exception
 * text while every other point proceeds. DseOptions::failFast
 * restores the historical rethrow.
 */
DsePoint
evaluateGuarded(const arch::SocConfig &config,
                const workload::Workload &workload,
                const arch::Constraints &constraints, ModelKind kind,
                const DseOptions &options, const EvalReuse *reuse,
                Schedule *schedule_out)
{
    if (options.failFast)
        return evaluatePointImpl(config, workload, constraints, kind,
                                 options, reuse, schedule_out);

    std::string error;
    try {
        return evaluatePointImpl(config, workload, constraints, kind,
                                 options, reuse, schedule_out);
    } catch (const std::exception &e) {
        error = e.what();
    } catch (...) {
        error = "unknown exception";
    }

    warn("dse: point %s threw (%s); retrying with a reduced node "
         "budget", config.name().c_str(), error.c_str());
    DseOptions retry = options;
    retry.engine.solver.maxNodes = std::max<int64_t>(
        1000, options.engine.solver.maxNodes / 4);
    // Salt the heuristic seed with the attempt index: an unsalted
    // retry replays the exact greedy/LNS destroy trajectory that
    // preceded the failure (the engine adds the per-instance
    // fingerprint on top; see SolverOptions::seedSalt).
    {
        Hasher salt;
        salt.u64(options.engine.solver.seedSalt);
        salt.u64(1); // Attempt index of the retry.
        retry.engine.solver.seedSalt = salt.digest();
    }
    try {
        return evaluatePointImpl(config, workload, constraints, kind,
                                 retry, reuse, schedule_out);
    } catch (const std::exception &e) {
        error = e.what();
    } catch (...) {
        error = "unknown exception";
    }

    warn("dse: point %s failed twice (%s); recording it as errored "
         "and continuing the sweep", config.name().c_str(),
         error.c_str());
    DsePoint failed;
    failed.config = config;
    failed.areaMm2 = config.areaMm2();
    failed.mix = classifyAccelMix(config);
    failed.errored = true;
    failed.note = format("exception: %s", error.c_str());
    metrics::counter("dse.points").add(1);
    metrics::counter("dse.points.errored").add(1);
    return failed;
}

/**
 * Rate-limited progress reporting for a sweep. Workers call tick()
 * once per completed design point; roughly every total/6 completions
 * (and at most once per kMinIntervalS seconds, since cache-hit bursts
 * can finish hundreds of points at once) one inform() line reports
 * done/total, elapsed time, a simple linear ETA, and the cache-hit
 * rate. The ETA rates on points that cost real solver work: cache
 * hits and checkpoint-resumed points complete in microseconds, so
 * averaging them in (the old formula) made the ETA collapse toward
 * zero right after a resumed burst even though every remaining point
 * is a cold solve. Sweeps below kMinPoints stay silent - they finish
 * before a heartbeat would help - and
 * setLogLevel(Warn)/HILP_LOG_LEVEL=warn silences the heartbeat like
 * any other status output.
 */
class Heartbeat
{
  public:
    explicit Heartbeat(size_t total)
        : total_(total),
          stride_(std::max<size_t>(1, total / 6)),
          start_(std::chrono::steady_clock::now())
    {}

    void
    tick(bool free_of_charge)
    {
        if (free_of_charge)
            freebies_.fetch_add(1, std::memory_order_relaxed);
        size_t done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
        // The final point is the caller's summary to report.
        if (total_ < kMinPoints || done >= total_ ||
            done % stride_ != 0)
            return;
        double elapsed = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start_).count();
        double last = lastReportS_.load(std::memory_order_relaxed);
        if (elapsed - last < kMinIntervalS ||
            !lastReportS_.compare_exchange_strong(last, elapsed))
            return; // Too soon, or another worker just reported.
        size_t freebies = freebies_.load(std::memory_order_relaxed);
        size_t cold = done > freebies ? done - freebies : 0;
        // Per-point rate over cold completions only; when everything
        // so far was free there is no cost signal yet, so fall back
        // to the naive all-points average rather than claim zero.
        double eta = cold > 0
            ? elapsed / static_cast<double>(cold) *
                  static_cast<double>(total_ - done)
            : elapsed / static_cast<double>(done) *
                  static_cast<double>(total_ - done);
        double free_rate = 100.0 * static_cast<double>(freebies) /
                           static_cast<double>(done);
        inform("dse: %zu/%zu points | %.1fs elapsed, ~%.1fs left | "
               "%.0f%% cached/resumed",
               done, total_, elapsed, eta, free_rate);
    }

  private:
    static constexpr size_t kMinPoints = 24;
    static constexpr double kMinIntervalS = 1.0;

    const size_t total_;
    const size_t stride_;
    const std::chrono::steady_clock::time_point start_;
    std::atomic<size_t> done_{0};
    //! Points that cost no solver work: cache hits + resumed.
    std::atomic<size_t> freebies_{0};
    std::atomic<double> lastReportS_{0.0};
};

// Similarity chains moved to dse::similarityChains (explore.cc): the
// distributed-sweep coordinator shards work by the same neighborhoods
// the in-process sweep warm-starts along.

/**
 * The shared sweep core behind dse::exploreSpace and
 * EvalService::sweep. See exploreSpace for the exploration
 * semantics. `on_point` (may be empty) sees every completed point,
 * and `trace_id` (0 = batch mode) is the owning request's trace
 * context, which the sweep workers re-establish so their spans and
 * points carry it.
 */
std::vector<DsePoint>
runSweep(const std::vector<arch::SocConfig> &configs,
         const workload::Workload &workload,
         const arch::Constraints &constraints, ModelKind kind,
         const DseOptions &options,
         const std::function<void(const DsePoint &, const Schedule *)>
             &on_point,
         uint64_t trace_id)
{
    std::vector<DsePoint> points(configs.size());
    // The sweep pool shares the process-wide thread budget with the
    // solver's parallel search: an outer worker holds a CPU slot
    // only while evaluating a point, so inner solves that ask the
    // budget for helpers (SolverOptions::threads == 0) pick up
    // exactly the slots the sweep is not using.
    ThreadPool pool(options.threads, &ThreadBudget::global());
    Heartbeat heartbeat(configs.size());

    // Common completion path for both sweep modes: persist the point
    // to the checkpoint (skipping points that came FROM it, and
    // errored points, which deserve a fresh attempt on resume),
    // stream it to the caller's sink, and advance the progress
    // heartbeat. HILP chain workers pass the solved schedule so the
    // record can rehydrate warm starts after a resume; everyone else
    // passes null.
    auto finishPoint = [&](size_t i, const Schedule *schedule) {
        const DsePoint &point = points[i];
        if (options.checkpoint && !point.resumed && !point.errored)
            options.checkpoint->record(
                dse::checkpointKey(point.fingerprint,
                                   configs[i].name(), kind),
                kind, point, schedule);
        if (on_point)
            on_point(point, schedule);
        heartbeat.tick(point.cacheHit || point.resumed);
    };

    // Cold-start path: every point is independent and touches no
    // memo, so it neither reads nor feeds reuse state. MA is analytic
    // and Gables rewrites the spec internally, so the cross-config
    // reuse layer applies to HILP sweeps only.
    if (!options.reuse || kind != ModelKind::Hilp) {
        pool.parallelFor(configs.size(), [&](size_t i) {
            trace::ContextScope requestScope(trace_id);
            points[i] = evaluateGuarded(configs[i], workload,
                                        constraints, kind, options,
                                        nullptr, nullptr);
            points[i].traceId = trace_id;
            finishPoint(i, nullptr);
        });
        return points;
    }

    SolveMemo local_memo;
    SolveMemo *memo = options.memo ? options.memo : &local_memo;
    SweepBound bound;
    auto chains = dse::similarityChains(configs);

    // Chains are independent; within a chain each config warm-starts
    // from its predecessor's schedule and every completed point
    // tightens the shared dominance bound.
    pool.parallelFor(chains.size(), [&](size_t c) {
        trace::ContextScope requestScope(trace_id);
        Schedule hint;
        bool have_hint = false;
        for (size_t idx : chains[c]) {
            double area = configs[idx].areaMm2();
            EvalReuse reuse;
            reuse.memo = memo;
            reuse.hint = have_hint ? &hint : nullptr;
            reuse.dominated = [&bound, area](double lower_bound_s) {
                return bound.dominates(area, lower_bound_s);
            };
            Schedule schedule;
            points[idx] = evaluateGuarded(configs[idx], workload,
                                          constraints, kind, options,
                                          &reuse, &schedule);
            points[idx].traceId = trace_id;
            finishPoint(idx,
                        points[idx].ok && !points[idx].resumed &&
                                !schedule.phases.empty()
                            ? &schedule
                            : nullptr);
            if (points[idx].ok) {
                bound.add(area, points[idx].makespanS);
                if (!points[idx].resumed) {
                    hint = std::move(schedule);
                    have_hint = true;
                } else if (options.checkpoint &&
                           options.checkpoint->lookupSchedule(
                               dse::checkpointKey(
                                   points[idx].fingerprint,
                                   configs[idx].name(), kind),
                               &hint)) {
                    // A resumed point whose record carried its
                    // schedule still seeds the chain: the rehydrated
                    // schedule warm-starts the next configuration as
                    // if this run had solved the point itself.
                    have_hint = true;
                    metrics::counter("dse.chain.rehydrated").add(1);
                }
            }
        }
    });
    return points;
}

} // anonymous namespace

// --- EvalService ------------------------------------------------------

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

std::vector<DsePoint>
EvalService::sweep(const SweepRequest &request)
{
    DseOptions options = request.options;
    options.memo = &memo_;
    return runSweep(request.configs, request.workload,
                    request.constraints, request.kind, options,
                    request.onPoint, request.traceId);
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

    // Solver-arena footprint published by the last search (see
    // hilp.arena.* in src/cp/search.cc): heap held by the arenas,
    // peak live scratch, and cumulative rewinds.
    Json arena = Json::object();
    arena.set("bytes", Json::number(
        metrics::gauge("hilp.arena.bytes").value()));
    arena.set("highwater", Json::number(
        metrics::gauge("hilp.arena.highwater").value()));
    arena.set("rewinds", Json::number(
        metrics::counter("hilp.arena.rewinds").value()));
    stats.set("arena", std::move(arena));

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

// --- Batch-mode entry points ------------------------------------------
//
// The historical dse:: API is a thin client of the shared sweep core
// above: without a DseOptions::memo a sweep gets a private one.

namespace dse {

DsePoint
evaluatePoint(const arch::SocConfig &config,
              const workload::Workload &workload,
              const arch::Constraints &constraints, ModelKind kind,
              const DseOptions &options)
{
    return service::evaluatePointImpl(config, workload, constraints,
                                      kind, options, nullptr, nullptr);
}

std::vector<DsePoint>
exploreSpace(const std::vector<arch::SocConfig> &configs,
             const workload::Workload &workload,
             const arch::Constraints &constraints, ModelKind kind,
             const DseOptions &options)
{
    return service::runSweep(configs, workload, constraints, kind,
                             options, {}, 0);
}

} // namespace dse
} // namespace hilp
