#include "engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "cp/list_scheduler.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

namespace hilp {

SolveMemo::SolveMemo(size_t max_bytes) : maxBytes_(max_bytes) {}

SolveMemo::Entry *
SolveMemo::findLocked(uint64_t fingerprint, uint64_t salt)
{
    auto it = instances_.find(fingerprint);
    if (it == instances_.end())
        return nullptr;
    for (Entry &entry : it->second.entries)
        if (entry.salt == salt)
            return &entry;
    return nullptr;
}

bool
SolveMemo::lookup(uint64_t fingerprint, uint64_t salt, EvalResult *out)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Entry *entry = findLocked(fingerprint, salt);
        if (!entry) {
            ++misses_;
            metrics::counter("hilp.cache.misses").add(1);
            return false;
        }
        // Refresh recency: a hit entry moves to the front of the
        // LRU order so hot specs survive eviction pressure.
        lru_.splice(lru_.begin(), lru_, entry->lruIt);
        *out = entry->result;
    }
    ++hits_;
    metrics::counter("hilp.cache.hits").add(1);
    out->cacheHit = true;
    // The effort was paid for by the original solve; a hit is free.
    out->solves = 0;
    out->totalNodes = 0;
    out->totalBacktracks = 0;
    out->totalSeconds = 0.0;
    out->warmStarted = false;
    out->prunedEarly = false;
    out->propagators.clear();
    return true;
}

bool
SolveMemo::hint(uint64_t fingerprint, Schedule *out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = instances_.find(fingerprint);
    if (it != instances_.end()) {
        for (Entry &entry : it->second.entries) {
            if (!entry.result.ok || entry.result.schedule.phases.empty())
                continue;
            lru_.splice(lru_.begin(), lru_, entry.lruIt);
            *out = entry.result.schedule;
            ++hintHits_;
            return true;
        }
    }
    ++hintMisses_;
    return false;
}

std::optional<uint64_t>
SolveMemo::loweredInstance(uint64_t digest) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = lowered_.find(digest);
    if (it == lowered_.end())
        return std::nullopt;
    return it->second;
}

void
SolveMemo::recordLowering(uint64_t digest, uint64_t fingerprint)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto instance = instances_.find(fingerprint);
    if (instance == instances_.end())
        return;
    // Lowering is deterministic: a recorded digest already names
    // this instance.
    if (!lowered_.try_emplace(digest, fingerprint).second)
        return;
    instance->second.digests.push_back(digest);
    bytes_ += kLoweringRecordBytes;
    evictToCapLocked();
    publishBytesLocked();
}

namespace {

/**
 * Structural digest of a result's content, for the final memo
 * tiebreak: two results that differ anywhere a caller can observe
 * digest differently (up to 64-bit collisions, which merely keep the
 * incumbent).
 */
uint64_t
resultDigest(const EvalResult &result)
{
    Hasher hasher;
    hasher.boolean(result.ok);
    hasher.i64(static_cast<int64_t>(result.status));
    hasher.f64(result.stepS);
    hasher.f64(result.makespanS);
    hasher.f64(result.lowerBoundS);
    for (const ScheduledPhase &phase : result.schedule.phases) {
        hasher.i64(phase.app);
        hasher.i64(phase.phase);
        hasher.i64(phase.option);
        hasher.i64(phase.startStep);
        hasher.i64(phase.durationSteps);
    }
    return hasher.digest();
}

/**
 * Strict quality order for memo entries: a feasible result beats an
 * infeasible one, then a smaller certified gap wins, then a
 * non-degraded result beats a degraded one. Effort and resolution
 * are not quality — but equal-rank entries must still resolve
 * deterministically (a parallel sweep races equal-rank inserts, and
 * "first insertion wins" would make the surviving entry depend on
 * the thread interleaving), so ranking falls through to a total
 * order on content: smaller makespan, then tighter bound, then
 * finer step, then the structural digest. Exact content ties keep
 * the incumbent, which is then the same entry either way.
 */
bool
betterResult(const EvalResult &candidate, const EvalResult &incumbent)
{
    if (candidate.ok != incumbent.ok)
        return candidate.ok;
    if (candidate.gap != incumbent.gap)
        return candidate.gap < incumbent.gap;
    if (candidate.degraded != incumbent.degraded)
        return !candidate.degraded;
    if (candidate.makespanS != incumbent.makespanS)
        return candidate.makespanS < incumbent.makespanS;
    if (candidate.lowerBoundS != incumbent.lowerBoundS)
        return candidate.lowerBoundS > incumbent.lowerBoundS;
    if (candidate.stepS != incumbent.stepS)
        return candidate.stepS < incumbent.stepS;
    return resultDigest(candidate) < resultDigest(incumbent);
}

} // anonymous namespace

size_t
SolveMemo::resultFootprintBytes(const EvalResult &result)
{
    // Per-entry bookkeeping: the Entry around the result, its LRU
    // list node, and its share of the by-instance hash-map node
    // (charged in full to every entry, so the cap also bounds that
    // map).
    size_t bytes = sizeof(Entry) + 128;
    const Schedule &schedule = result.schedule;
    bytes += schedule.phases.capacity() * sizeof(ScheduledPhase);
    for (const ScheduledPhase &phase : schedule.phases) {
        bytes += phase.name.capacity();
        bytes += phase.unitLabel.capacity();
    }
    bytes += schedule.deviceNames.capacity() * sizeof(std::string);
    for (const std::string &name : schedule.deviceNames)
        bytes += name.capacity();
    bytes +=
        result.propagators.capacity() * sizeof(cp::PropagatorStats);
    for (const cp::PropagatorStats &stats : result.propagators)
        bytes += stats.name.capacity();
    return bytes;
}

void
SolveMemo::publishBytesLocked()
{
    metrics::gauge("hilp.memo.bytes")
        .set(static_cast<double>(bytes_));
}

void
SolveMemo::evictToCapLocked()
{
    if (maxBytes_ == 0)
        return;
    while (bytes_ > maxBytes_ && !lru_.empty()) {
        const Slot slot = lru_.back();
        lru_.pop_back();
        auto it = instances_.find(slot.first);
        hilp_assert(it != instances_.end());
        std::vector<Entry> &entries = it->second.entries;
        auto victim = std::find_if(
            entries.begin(), entries.end(),
            [&slot](const Entry &e) { return e.salt == slot.second; });
        hilp_assert(victim != entries.end());
        bytes_ -= victim->bytes;
        entries.erase(victim);
        // The instance's hint and index records go with its last
        // entry.
        if (entries.empty()) {
            for (uint64_t digest : it->second.digests)
                lowered_.erase(digest);
            bytes_ -= it->second.digests.size() * kLoweringRecordBytes;
            instances_.erase(it);
        }
        ++evictions_;
        metrics::counter("hilp.memo.evictions").add(1);
    }
}

void
SolveMemo::insert(uint64_t fingerprint, uint64_t salt,
                  const EvalResult &result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry *entry = findLocked(fingerprint, salt);
    if (!entry) {
        lru_.emplace_front(fingerprint, salt);
        Entry fresh;
        fresh.salt = salt;
        fresh.result = result;
        fresh.bytes = resultFootprintBytes(result);
        fresh.lruIt = lru_.begin();
        bytes_ += fresh.bytes;
        instances_[fingerprint].entries.push_back(std::move(fresh));
    } else if (betterResult(result, entry->result)) {
        bytes_ -= entry->bytes;
        entry->result = result;
        entry->bytes = resultFootprintBytes(result);
        bytes_ += entry->bytes;
        lru_.splice(lru_.begin(), lru_, entry->lruIt);
    } else {
        // The incumbent survives; the attempt still counts as use.
        lru_.splice(lru_.begin(), lru_, entry->lruIt);
    }
    evictToCapLocked();
    publishBytesLocked();
}

void
SolveMemo::setMaxBytes(size_t max_bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    maxBytes_ = max_bytes;
    evictToCapLocked();
    publishBytesLocked();
}

size_t
SolveMemo::maxBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return maxBytes_;
}

size_t
SolveMemo::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

size_t
SolveMemo::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

int64_t
SolveMemo::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

void
SolveMemo::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    instances_.clear();
    lowered_.clear();
    lru_.clear();
    bytes_ = 0;
    publishBytesLocked();
}

EngineOptions
EngineOptions::validationMode()
{
    EngineOptions options;
    options.initialStepS = 2.0;
    options.horizonSteps = 1000;
    options.refineThreshold = 200;
    return options;
}

EngineOptions
EngineOptions::explorationMode()
{
    EngineOptions options;
    options.initialStepS = 10.0;
    options.horizonSteps = 200;
    options.refineThreshold = 40;
    return options;
}

Schedule
liftSchedule(const ProblemSpec &spec, const DiscretizedProblem &problem,
             const cp::ScheduleVec &solution)
{
    Schedule schedule;
    schedule.stepS = problem.stepS;
    schedule.deviceNames = spec.deviceNames;
    schedule.cpuCores = spec.cpuCores;
    for (int task = 0; task < problem.model.numTasks(); ++task) {
        const cp::Assignment &assignment = solution.tasks[task];
        hilp_assert(assignment.scheduled());
        auto [app, phase_idx] = problem.phaseOf[task];
        int option_idx = problem.optionOf[task][assignment.mode];
        const PhaseSpec &phase = spec.apps[app].phases[phase_idx];
        const UnitOption &option = phase.options[option_idx];

        ScheduledPhase placed;
        placed.app = app;
        placed.phase = phase_idx;
        placed.name = phase.name;
        placed.option = option_idx;
        placed.unitLabel = option.label;
        placed.device = option.device;
        placed.startStep = assignment.start;
        placed.durationSteps =
            problem.model.task(task).modes[assignment.mode].duration;
        placed.startS = assignment.start * problem.stepS;
        placed.durationS = placed.durationSteps * problem.stepS;
        placed.powerW = option.powerW;
        placed.bwGBs = option.bwGBs;
        placed.cpuCores = option.cpuCores;
        schedule.phases.push_back(std::move(placed));
    }
    return schedule;
}

double
continuousLowerBoundS(const ProblemSpec &spec)
{
    double bound = 0.0;
    for (const AppSpec &app : spec.apps) {
        const int n = static_cast<int>(app.phases.size());
        std::vector<double> fastest(n, 0.0);
        for (int p = 0; p < n; ++p) {
            double best = std::numeric_limits<double>::infinity();
            for (const UnitOption &option : app.phases[p].options)
                best = std::min(best, option.timeS);
            fastest[p] = best;
        }
        // Longest-path relaxation over the (small, acyclic) phase
        // graph: n rounds of Bellman-Ford reach a fixed point.
        std::vector<double> start(n, 0.0);
        auto deps = app.effectiveDeps();
        auto lags = app.effectiveStartLags();
        for (int round = 0; round < n; ++round) {
            for (auto [from, to] : deps)
                start[to] = std::max(start[to],
                                     start[from] + fastest[from]);
            for (const StartLag &lag : lags)
                start[lag.to] = std::max(start[lag.to],
                                         start[lag.from] + lag.lagS);
        }
        for (int p = 0; p < n; ++p)
            bound = std::max(bound, start[p] + fastest[p]);
    }
    return bound;
}

bool
transferSchedule(const ProblemSpec &spec,
                 const DiscretizedProblem &problem,
                 const Schedule &hint, cp::ScheduleVec *out)
{
    const cp::Model &model = problem.model;
    const int n = model.numTasks();
    if (static_cast<int>(hint.phases.size()) != n)
        return false;

    // Map every hint phase onto this problem's task and a mode:
    // the same unit option when the label still exists, otherwise
    // the fastest available mode.
    std::vector<int> priority;
    priority.reserve(n);
    std::vector<int> forced_mode(n);
    std::vector<double> start_s(n);
    std::vector<char> seen(n, 0);
    for (const ScheduledPhase &phase : hint.phases) {
        if (phase.app < 0 ||
            phase.app >= static_cast<int>(problem.taskOf.size()))
            return false;
        const std::vector<int> &row = problem.taskOf[phase.app];
        if (phase.phase < 0 ||
            phase.phase >= static_cast<int>(row.size()))
            return false;
        int task = row[phase.phase];
        if (task < 0 || task >= n || seen[task])
            return false;
        seen[task] = 1;

        const std::vector<cp::Mode> &modes = model.task(task).modes;
        const PhaseSpec &phase_spec =
            spec.apps[phase.app].phases[phase.phase];
        int pick = -1;
        for (int m = 0; m < static_cast<int>(modes.size()); ++m) {
            int option = problem.optionOf[task][m];
            if (phase_spec.options[option].label == phase.unitLabel) {
                pick = m;
                break;
            }
        }
        if (pick < 0) {
            for (int m = 0; m < static_cast<int>(modes.size()); ++m)
                if (pick < 0 ||
                    modes[m].duration < modes[pick].duration)
                    pick = m;
        }
        priority.push_back(task);
        forced_mode[task] = pick;
        start_s[task] = phase.startS;
    }

    // Serial schedule generation in hint start order, each task in
    // its hint mode. Topological position breaks ties, so a hint that
    // meets its own dependencies sorts into a linear extension and
    // the SGS places its tasks in exactly this order; any other hint
    // the SGS repairs, placing a task only once it is eligible.
    std::vector<int> topo = model.topologicalOrder();
    std::vector<int> topo_pos(n, 0);
    for (int i = 0; i < n; ++i)
        topo_pos[topo[i]] = i;
    std::sort(priority.begin(), priority.end(), [&](int a, int b) {
        if (start_s[a] != start_s[b])
            return start_s[a] < start_s[b];
        return topo_pos[a] < topo_pos[b];
    });

    cp::ListScheduler sgs(model);
    if (!sgs.run(priority, forced_mode))
        return false; // Does not fit within the horizon.
    *out = sgs.result().schedule;
    return checkSchedule(model, *out).empty();
}

namespace {

using EngineClock = std::chrono::steady_clock;

/**
 * Solve once at a fixed resolution and fill an EvalResult. The
 * deadline caps the solve (and its escalations) on top of the
 * per-solve budgets; a result cut short by it is marked degraded.
 */
EvalResult
solveAtResolution(const ProblemSpec &spec, double step_s,
                  const EngineOptions &options, const Schedule *hint,
                  EngineClock::time_point deadline)
{
    TRACE_SPAN("hilp.resolution",
               trace::Arg::numArg("step_s", step_s));
    DiscretizedProblem problem =
        discretize(spec, step_s, options.horizonSteps);

    // Re-time the cross-instance hint onto this resolution.
    cp::ScheduleVec transferred;
    const cp::ScheduleVec *hint_vec = nullptr;
    if (hint && transferSchedule(spec, problem, *hint, &transferred))
        hint_vec = &transferred;

    EvalResult eval;
    cp::SolverOptions solver_options = options.solver;
    solver_options.deadline = deadline;
    cp::Result result;
    for (int attempt = 0; ; ++attempt) {
        cp::Solver solver(solver_options);
        cp::Result candidate = solver.solve(problem.model, hint_vec);
        ++eval.solves;
        eval.totalNodes += candidate.stats.nodes;
        eval.totalBacktracks += candidate.stats.backtracks;
        eval.totalSeconds += candidate.stats.seconds;
        eval.warmStarted =
            eval.warmStarted || candidate.stats.hintAccepted;
        cp::mergePropagatorStats(eval.propagators,
                                 candidate.stats.propagators);
        if (attempt == 0 ||
            (candidate.hasSchedule() &&
             (!result.hasSchedule() ||
              candidate.makespan < result.makespan))) {
            // Keep the better schedule; bounds only ever tighten.
            cp::Time best_lb = std::max(result.lowerBound,
                                        candidate.lowerBound);
            result = std::move(candidate);
            result.lowerBound = std::max(result.lowerBound, best_lb);
        } else {
            result.lowerBound = std::max(result.lowerBound,
                                         candidate.lowerBound);
        }
        bool needs_more = result.hasSchedule() &&
            result.gap() > options.solver.targetGap;
        if (!needs_more || attempt >= options.escalations)
            break;
        if (EngineClock::now() >= deadline) {
            // The deadline cut planned escalations: keep the
            // incumbent and its certified gap, flagged as degraded.
            eval.degraded = true;
            break;
        }
        // The paper reruns experiments that miss the bound with
        // more resources; do the same with multiplied budgets.
        solver_options.maxSeconds *= options.escalationFactor;
        solver_options.maxNodes = static_cast<int64_t>(
            solver_options.maxNodes * options.escalationFactor);
        solver_options.lnsIterations = static_cast<int>(
            solver_options.lnsIterations * options.escalationFactor);
        solver_options.seed += 7919; // Diversify the heuristics.
    }

    // However the loop ended: a result still short of the target gap
    // with the deadline gone is degraded - given time, the engine
    // would have kept working the instance (here or in refinement).
    if (result.hasSchedule() &&
        result.gap() > options.solver.targetGap &&
        EngineClock::now() >= deadline)
        eval.degraded = true;

    eval.status = result.status;
    eval.stepS = step_s;
    eval.stats = result.stats;
    if (!result.hasSchedule())
        return eval;
    eval.ok = true;
    eval.makespanS = result.makespan * step_s;
    eval.lowerBoundS = result.lowerBound * step_s;
    eval.gap = result.gap();
    eval.schedule = liftSchedule(spec, problem, result.schedule);
    eval.averageWlp = eval.schedule.averageWlp();
    return eval;
}

} // anonymous namespace

EvalResult
evaluate(const ProblemSpec &spec, const EngineOptions &request_options,
         const EvalReuse &reuse)
{
    trace::Span eval_span("hilp.evaluate");
    if (trace::enabled())
        eval_span.arg(trace::Arg::strArg("spec", spec.name));

    std::string issue = spec.validate();
    if (!issue.empty())
        fatal("invalid problem spec '%s': %s", spec.name.c_str(),
              issue.c_str());
    hilp_assert(request_options.initialStepS > 0.0);
    hilp_assert(request_options.refineFactor > 1.0);

    // Salt the heuristic seed with the instance identity before any
    // solve: distinct problems sharing SolverOptions::seed must not
    // share greedy and hill-climbing trajectories, and a sweep retry
    // that bumps seedSalt by the attempt index gets genuinely
    // different restarts and moves instead of replaying the failing
    // ones. The sweep's memo salt digests the *request* options, and
    // this seed salt is a pure function of the fingerprint, so cached
    // and fresh evaluations of an instance still agree.
    EngineOptions options = request_options;
    {
        Hasher seed_salt;
        seed_salt.u64(request_options.solver.seedSalt);
        seed_salt.u64(reuse.fingerprint ? *reuse.fingerprint
                                        : spec.fingerprint());
        options.solver.seedSalt = seed_salt.digest();
    }

    // One monotonic deadline governs the *whole* evaluation: every
    // coarsening, refinement, and escalation solves against it, so a
    // point can never cost more than pointTimeoutS wall-clock.
    EngineClock::time_point deadline = EngineClock::time_point::max();
    if (options.pointTimeoutS > 0.0)
        deadline = EngineClock::now() +
            std::chrono::duration_cast<EngineClock::duration>(
                std::chrono::duration<double>(options.pointTimeoutS));
    auto expired = [&deadline] {
        return EngineClock::now() >= deadline;
    };

    // Effort accumulates across every resolution attempted; the
    // returned result reports the sweep-relevant totals, not just
    // the final solve's.
    int solves = 0;
    int64_t nodes = 0;
    int64_t backtracks = 0;
    double seconds = 0.0;
    bool warm_started = false;
    bool degraded = false;
    std::vector<cp::PropagatorStats> propagators;
    auto solve_at = [&](double step_s) {
        EvalResult r =
            solveAtResolution(spec, step_s, options, reuse.hint, deadline);
        solves += r.solves;
        nodes += r.totalNodes;
        backtracks += r.totalBacktracks;
        seconds += r.totalSeconds;
        warm_started = warm_started || r.warmStarted;
        degraded = degraded || r.degraded;
        cp::mergePropagatorStats(propagators, r.propagators);
        return r;
    };
    auto finish = [&](EvalResult &&r) {
        r.solves = solves;
        r.totalNodes = nodes;
        r.totalBacktracks = backtracks;
        r.totalSeconds = seconds;
        r.warmStarted = warm_started;
        r.degraded = r.degraded || degraded;
        r.propagators = propagators;
        if (r.degraded)
            metrics::counter("hilp.evals.degraded").add(1);
        return std::move(r);
    };

    // Find a resolution at which a schedule exists, coarsening when
    // the initial horizon is too tight. This is also the one way a
    // late point degrades: past the deadline a solve costs only its
    // bounds, its greedy and one node, so the ladder stays cheap and
    // every rung still certifies its own bound.
    double step = options.initialStepS;
    EvalResult best = solve_at(step);
    int coarsenings = 0;
    while (!best.ok && coarsenings < options.maxCoarsenings) {
        step *= options.refineFactor;
        ++coarsenings;
        best = solve_at(step);
        best.refinements = -coarsenings;
    }
    if (!best.ok)
        return finish(std::move(best));

    // When the sweep already holds a point that dominates anything
    // this instance can achieve at *any* resolution (the continuous
    // critical-path bound is beaten at no more area), refinement
    // cannot change the sweep outcome: stop early with the current
    // gap-certified result. The coarse certified bound is NOT valid
    // here - refinement can land below it, since coarse durations
    // round up - so only the resolution-invariant bound is used.
    if (reuse.dominated && reuse.dominated(continuousLowerBoundS(spec))) {
        best.prunedEarly = true;
        return finish(std::move(best));
    }

    // Refine while the makespan under-uses the horizon (Sec. III-D).
    int refinements = 0;
    while (refinements < options.maxRefinements) {
        cp::Time makespan_steps = static_cast<cp::Time>(
            std::llround(best.makespanS / step));
        if (makespan_steps >= options.refineThreshold)
            break;
        if (expired()) {
            // Planned refinements were cut: the incumbent keeps the
            // certified gap of its own resolution, flagged degraded.
            best.degraded = true;
            break;
        }
        double finer = step / options.refineFactor;
        // The coarse solution seeds the finer solve; warmStarted
        // still reports only *cross-instance* hint acceptance.
        EvalResult candidate = solveAtResolution(
            spec, finer, options, &best.schedule, deadline);
        solves += candidate.solves;
        nodes += candidate.totalNodes;
        backtracks += candidate.totalBacktracks;
        seconds += candidate.totalSeconds;
        degraded = degraded || candidate.degraded;
        cp::mergePropagatorStats(propagators, candidate.propagators);
        if (!candidate.ok)
            break; // Finer resolution no longer fits the horizon.
        step = finer;
        ++refinements;
        candidate.refinements = refinements - coarsenings;
        best = std::move(candidate);
    }
    return finish(std::move(best));
}

EvalResult
evaluate(const ProblemSpec &spec, const EngineOptions &options)
{
    return evaluate(spec, options, EvalReuse{});
}

} // namespace hilp
