/**
 * @file
 * The sweep core behind exploreSpace and evaluatePoint (see
 * explore.hh): one per-point step with fault isolation, and one loop
 * over similarity chains, which a cold sweep runs as singleton chains
 * with no reuse state.
 */

#include "explore.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <tuple>
#include <utility>

#include "baselines/gables.hh"
#include "baselines/multiamdahl.hh"
#include "checkpoint.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/str.hh"
#include "support/thread_pool.hh"
#include "support/trace.hh"

namespace hilp {
namespace dse {

namespace {

/**
 * Rate-limited sweep progress. Workers tick() once per completed
 * point; about every total/6 completions, and at most once per
 * kMinIntervalS (cache-hit bursts finish hundreds of points at once),
 * one inform() line reports done/total, elapsed time, a linear ETA
 * and the cached/resumed share. The ETA rates only points that cost
 * solver work: cache hits and resumed points finish in microseconds
 * and would collapse it toward zero after a resumed burst. Sweeps
 * below kMinPoints stay silent, and HILP_LOG_LEVEL=warn silences the
 * heartbeat like any other status output.
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

/**
 * Evaluate one design point: the step of both exploreSpace and
 * evaluatePoint. A point a previous run completed comes back from the
 * checkpoint; any other is lowered and evaluated under `kind`. For
 * HILP, `reuse` carries the sweep's cross-config state into the
 * engine and `schedule_out` (nullable) receives the solved schedule.
 * A throwing evaluation is retried once with a quarter of the node
 * budget (transients such as allocation pressure often clear under a
 * smaller footprint); a second failure comes back as an errored
 * point carrying the exception text. One span and the dse.points*
 * counters record each point.
 */
DsePoint
runPoint(const arch::SocConfig &config,
         const workload::Workload &workload,
         const arch::Constraints &constraints, ModelKind kind,
         const DseOptions &options, const EvalReuse &reuse,
         Schedule *schedule_out)
{
    trace::Span span("dse.point");
    if (trace::enabled())
        span.arg(trace::Arg::strArg("config", config.name()));

    // One attempt under the given engine options; it throws whatever
    // the evaluation throws.
    auto evaluateOnce = [&](const EngineOptions &engine) {
        DsePoint point;
        point.setConfig(config);
        ProblemSpec spec =
            buildProblem(workload, config, constraints, options.build);
        point.fingerprint = spec.fingerprint();

        // The certified result of a resumed point comes back, and a
        // HILP record's persisted schedule stays available via
        // lookupSchedule for the sweep's warm-start chains.
        if (options.checkpoint &&
            options.checkpoint->lookup(
                checkpointKey(point.fingerprint, config.name(), kind),
                &point)) {
            point.setConfig(config);
            return point;
        }

        // After the checkpoint shortcut: the injected fault stands in
        // for a crash inside the evaluation, which a resumed point
        // never reaches.
        if (options.injectFault)
            options.injectFault(config);

        std::string invalid = spec.validate();
        if (!invalid.empty()) {
            // Unschedulable under these budgets; keep the reason so
            // the report can tell this apart from a solver failure.
            point.note = invalid;
            return point;
        }

        if (kind == ModelKind::MultiAmdahl) {
            baselines::MaResult ma = baselines::evaluateMultiAmdahl(spec);
            if (!ma.ok) {
                point.note = "MultiAmdahl found no feasible sequential "
                             "placement";
                return point;
            }
            point.makespanS = ma.makespanS;
            point.averageWlp = ma.averageWlp();
            point.gap = 0.0;
            point.status = cp::SolveStatus::Optimal;
        } else {
            EvalResult result = kind == ModelKind::Hilp
                ? evaluate(spec, engine, reuse)
                : baselines::evaluateGables(spec, engine);
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
            if (!result.ok) {
                point.note = format("solver gave up: %s",
                                    cp::toString(result.status));
                return point;
            }
            point.makespanS = result.makespanS;
            point.averageWlp = result.averageWlp;
            // Gables solves a rewritten spec, so only a HILP
            // schedule is one of this instance.
            if (kind == ModelKind::Hilp && schedule_out)
                *schedule_out = std::move(result.schedule);
        }
        point.ok = true;
        if (point.makespanS > 0.0)
            point.speedup =
                workload::sequentialCpuTimeS(workload) / point.makespanS;
        return point;
    };

    DsePoint point;
    bool evaluated = false;
    std::string error;
    for (uint64_t attempt = 0; attempt < 2 && !evaluated; ++attempt) {
        EngineOptions engine = options.engine;
        if (attempt > 0) {
            warn("dse: point %s threw (%s); retrying with a reduced "
                 "node budget", config.name().c_str(), error.c_str());
            engine.solver.maxNodes = std::max<int64_t>(
                1000, options.engine.solver.maxNodes / 4);
            // Salt the heuristic seed with the attempt index: an
            // unsalted retry replays the exact greedy and hill-climbing
            // trajectory that preceded the failure (the engine adds
            // the per-instance fingerprint on top; see
            // SolverOptions::seedSalt).
            Hasher salt;
            salt.u64(options.engine.solver.seedSalt);
            salt.u64(attempt);
            engine.solver.seedSalt = salt.digest();
        }
        try {
            point = evaluateOnce(engine);
            evaluated = true;
        } catch (const std::exception &e) {
            error = e.what();
        } catch (...) {
            error = "unknown exception";
        }
    }
    if (!evaluated) {
        warn("dse: point %s failed twice (%s); recording it as errored "
             "and continuing the sweep", config.name().c_str(),
             error.c_str());
        point.setConfig(config);
        point.errored = true;
        point.note = format("exception: %s", error.c_str());
    }

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
    if (point.errored)
        metrics::counter("dse.points.errored").add(1);
    return point;
}

} // anonymous namespace

const char *
toString(ModelKind kind)
{
    switch (kind) {
      case ModelKind::MultiAmdahl:
        return "MA";
      case ModelKind::Hilp:
        return "HILP";
      case ModelKind::Gables:
        return "Gables";
    }
    return "unknown";
}

void
DsePoint::setConfig(const arch::SocConfig &soc)
{
    config = soc;
    areaMm2 = soc.areaMm2();
    mix = classifyAccelMix(soc);
}

DsePoint
evaluatePoint(const arch::SocConfig &config,
              const workload::Workload &workload,
              const arch::Constraints &constraints, ModelKind kind,
              const DseOptions &options)
{
    return runPoint(config, workload, constraints, kind, options,
                    EvalReuse{}, nullptr);
}

std::vector<DsePoint>
exploreSpace(const std::vector<arch::SocConfig> &configs,
             const workload::Workload &workload,
             const arch::Constraints &constraints, ModelKind kind,
             const DseOptions &options, const PointSink &on_point,
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

    // MA is analytic and Gables rewrites the spec internally, so the
    // cross-config reuse layer applies to HILP sweeps only. Without
    // it every config is a chain of its own that touches no memo,
    // dominance bound or hint: the cold reference.
    const bool reuse = options.reuse && kind == ModelKind::Hilp;
    SolveMemo local_memo;
    SolveMemo *memo = options.memo ? options.memo : &local_memo;
    std::vector<std::vector<size_t>> chains;
    if (reuse) {
        chains = similarityChains(configs);
    } else {
        chains.resize(configs.size());
        for (size_t i = 0; i < configs.size(); ++i)
            chains[i] = {i};
    }

    // Chains are independent; within a chain each config warm-starts
    // from its predecessor's schedule. A config whose certified
    // makespan lower bound is beaten by a completed point of no more
    // area can never reach the Pareto front, so its solve may stop
    // refining early (the result keeps its certified gap either way).
    // The completed points it is checked against are its own chain's:
    // they ran before it on the same thread, so whether a point is
    // pruned does not depend on thread timing.
    pool.parallelFor(chains.size(), [&](size_t c) {
        trace::ContextScope requestScope(trace_id);
        Schedule hint;
        bool have_hint = false;
        std::vector<std::pair<double, double>> completed; // Area, makespan.
        for (size_t idx : chains[c]) {
            double area = configs[idx].areaMm2();
            EvalReuse point_reuse;
            if (reuse) {
                point_reuse.memo = memo;
                point_reuse.hint = have_hint ? &hint : nullptr;
                point_reuse.dominated = [&completed,
                                         area](double lower_bound_s) {
                    return std::any_of(
                        completed.begin(), completed.end(),
                        [&](const std::pair<double, double> &done) {
                            return done.first <= area &&
                                   done.second < lower_bound_s;
                        });
                };
            }
            Schedule schedule;
            DsePoint &point = points[idx];
            point = runPoint(configs[idx], workload, constraints, kind,
                             options, point_reuse, &schedule);
            point.traceId = trace_id;
            auto key = [&] {
                return checkpointKey(point.fingerprint,
                                     configs[idx].name(), kind);
            };
            const Schedule *solved =
                point.ok && !point.resumed && !schedule.phases.empty()
                    ? &schedule
                    : nullptr;
            // Persist the point with its schedule, so a resume can
            // rehydrate warm starts (points that came FROM the
            // checkpoint are there already, and errored points
            // deserve a fresh attempt on resume), stream it to the
            // caller's sink, and advance the progress heartbeat.
            if (options.checkpoint && !point.resumed && !point.errored)
                options.checkpoint->record(key(), kind, point, solved);
            if (on_point)
                on_point(point, solved);
            heartbeat.tick(point.cacheHit || point.resumed);
            if (!reuse || !point.ok)
                continue;
            completed.emplace_back(area, point.makespanS);
            if (!point.resumed) {
                hint = std::move(schedule);
                have_hint = true;
            } else if (options.checkpoint &&
                       options.checkpoint->lookupSchedule(key(), &hint)) {
                // A resumed point whose record carried its schedule
                // still seeds the chain: the rehydrated schedule
                // warm-starts the next configuration as if this run
                // had solved the point itself.
                have_hint = true;
                metrics::counter("dse.chain.rehydrated").add(1);
            }
        }
    });
    return points;
}

std::vector<std::vector<size_t>>
similarityChains(const std::vector<arch::SocConfig> &configs)
{
    using Key = std::tuple<int, size_t, int, double, std::vector<int>>;
    std::map<Key, std::vector<size_t>> chains;
    for (size_t i = 0; i < configs.size(); ++i) {
        const arch::SocConfig &config = configs[i];
        int pes = config.dsas.empty() ? 0 : config.dsas.front().pes;
        std::vector<int> targets;
        targets.reserve(config.dsas.size());
        for (const arch::DsaSpec &dsa : config.dsas)
            targets.push_back(dsa.target);
        chains[{config.cpuCores, config.dsas.size(), pes,
                config.dsaAdvantage, std::move(targets)}]
            .push_back(i);
    }
    std::vector<std::vector<size_t>> result;
    result.reserve(chains.size());
    for (auto &[key, indices] : chains) {
        std::sort(indices.begin(), indices.end(),
                  [&](size_t a, size_t b) {
                      if (configs[a].gpuSms != configs[b].gpuSms)
                          return configs[a].gpuSms < configs[b].gpuSms;
                      return a < b;
                  });
        result.push_back(std::move(indices));
    }
    return result;
}

} // namespace dse
} // namespace hilp
