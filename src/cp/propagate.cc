#include "propagate.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "support/trace.hh"

namespace hilp {
namespace cp {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Timing every rule run would cost two clock reads per rule per node;
 * instead every kTimingSample-th run is timed and extrapolated. Keep
 * it a power of two.
 */
constexpr int64_t kTimingSample = 16;

/**
 * Sampling rate for per-rule trace spans when tracing is enabled: the
 * rules run at every search node, so tracing every run would saturate
 * the trace buffers in milliseconds. One span per kTraceSample runs
 * keeps the timeline representative while a full solve stays within
 * the per-thread event budget. Power of two.
 */
constexpr int64_t kTraceSample = 1024;

/** Rule names in run order; static, since trace spans keep them. */
constexpr const char *kRuleNames[] = {"timetable", "disjunctive",
                                      "precedence"};

/**
 * Run one rule, with its sampled timing and trace span, and count the
 * run and (when its bound reaches ub) the cutoff.
 */
template <typename Rule>
Time
measure(PropagatorStats &stats, const char *name, Time ub, Rule rule)
{
    // Every kTraceSample-th run becomes a span on the trace timeline;
    // a null name keeps the span a no-op on the unsampled (or
    // untraced) runs.
    bool traced = trace::enabled() &&
        (stats.invocations & (kTraceSample - 1)) == 0;
    trace::Span span(traced ? name : nullptr);
    Time bound;
    if ((stats.invocations & (kTimingSample - 1)) == 0) {
        Clock::time_point t0 = Clock::now();
        bound = rule();
        stats.seconds += std::chrono::duration<double>(
            Clock::now() - t0).count() *
            static_cast<double>(kTimingSample);
    } else {
        bound = rule();
    }
    if (traced)
        span.arg(trace::Arg::intArg("bound", bound));
    ++stats.invocations;
    if (bound >= ub)
        ++stats.prunings;
    return bound;
}

} // anonymous namespace

void
mergePropagatorStats(std::vector<PropagatorStats> &into,
                     const std::vector<PropagatorStats> &from)
{
    for (const PropagatorStats &f : from) {
        PropagatorStats *hit = nullptr;
        for (PropagatorStats &i : into) {
            if (i.name == f.name) {
                hit = &i;
                break;
            }
        }
        if (!hit) {
            into.push_back(f);
            continue;
        }
        hit->invocations += f.invocations;
        hit->prunings += f.prunings;
        hit->seconds += f.seconds;
    }
}

NodeBound::NodeBound(const Model &model, const CriticalPathData &cp)
    : model_(model),
      cp_(cp),
      topo_(model.topologicalOrder())
{
    for (const char *name : kRuleNames) {
        PropagatorStats stats;
        stats.name = name;
        stats_.push_back(std::move(stats));
    }

    const int n = model.numTasks();
    const size_t nr = static_cast<size_t>(model.numResources());
    minEnergy_.assign(static_cast<size_t>(n) * nr, 0.0);
    remainingEnergy_.assign(nr, 0.0);
    placedEnergy_.assign(nr, 0.0);
    pinnedGroup_.assign(n, kNoGroup);
    groupBusy_.assign(model.numGroups(), 0);
    remainingPinned_.assign(model.numGroups(), 0);
    for (int t = 0; t < n; ++t) {
        const Task &task = model.task(t);
        for (size_t r = 0; r < nr; ++r) {
            double min_e = -1.0;
            for (const Mode &mode : task.modes) {
                double e = mode.usage[r] *
                    static_cast<double>(mode.duration);
                if (min_e < 0.0 || e < min_e)
                    min_e = e;
            }
            minEnergy_[t * nr + r] = std::max(0.0, min_e);
            remainingEnergy_[r] += minEnergy_[t * nr + r];
        }

        int group = task.modes[0].group;
        bool pinned = group != kNoGroup;
        for (const Mode &mode : task.modes)
            pinned = pinned && mode.group == group;
        if (pinned) {
            pinnedGroup_[t] = group;
            remainingPinned_[group] += model.minDuration(t);
        }
    }

    // Flatten the per-task predecessor and lag-edge lists into CSR
    // arrays and bake each predecessor's min duration next to its
    // index: the precedence pass runs at every search node, and
    // chasing a vector-of-vectors there costs a cache miss per task.
    predOff_.reserve(static_cast<size_t>(n) + 1);
    lagOff_.reserve(static_cast<size_t>(n) + 1);
    predOff_.push_back(0);
    lagOff_.push_back(0);
    for (int t = 0; t < n; ++t) {
        for (int p : model.predecessors(t))
            preds_.push_back({p, model.minDuration(p)});
        predOff_.push_back(static_cast<int32_t>(preds_.size()));
        for (const Model::LagEdge &edge : model.lagPredecessors(t))
            lags_.push_back({edge.other, edge.lag});
        lagOff_.push_back(static_cast<int32_t>(lags_.size()));
    }
    est_.assign(n, 0);
}

void
NodeBound::place(int task, const Mode &mode)
{
    const size_t nr = remainingEnergy_.size();
    for (size_t r = 0; r < nr; ++r) {
        remainingEnergy_[r] -= minEnergy_[task * nr + r];
        placedEnergy_[r] += mode.usage[r] *
            static_cast<double>(mode.duration);
    }
    if (pinnedGroup_[task] != kNoGroup)
        remainingPinned_[pinnedGroup_[task]] -= model_.minDuration(task);
    if (mode.group != kNoGroup)
        groupBusy_[mode.group] += mode.duration;
}

void
NodeBound::remove(int task, const Mode &mode)
{
    if (pinnedGroup_[task] != kNoGroup)
        remainingPinned_[pinnedGroup_[task]] += model_.minDuration(task);
    if (mode.group != kNoGroup)
        groupBusy_[mode.group] -= mode.duration;
    const size_t nr = remainingEnergy_.size();
    for (size_t r = 0; r < nr; ++r) {
        remainingEnergy_[r] += minEnergy_[task * nr + r];
        placedEnergy_[r] -= mode.usage[r] *
            static_cast<double>(mode.duration);
    }
}

Time
NodeBound::bound(const std::vector<Assignment> &assign,
                 const std::vector<Time> &end, Time makespan,
                 Time lowerBound, Time ub)
{
    // The base bound (or an earlier rule) may already prove the
    // cutoff; then the later rules neither run nor get the credit.
    Time bound = std::max(makespan, lowerBound);
    auto run = [&](int rule, auto fn) {
        if (bound < ub)
            bound = std::max(bound, measure(stats_[rule],
                                            kRuleNames[rule], ub, fn));
    };
    run(0, [&] { return timetable(); });
    run(1, [&] { return disjunctive(); });
    run(2, [&] { return precedence(assign, end); });
    return bound;
}

/**
 * Per resource, the energy already committed plus the minimum energy
 * every unplaced task must still commit, divided by capacity, bounds
 * any completion's makespan.
 */
Time
NodeBound::timetable() const
{
    Time bound = 0;
    for (int r = 0; r < model_.numResources(); ++r) {
        double cap = model_.capacity(r);
        if (cap <= 0.0)
            continue;
        double energy = placedEnergy_[r] + remainingEnergy_[r];
        bound = std::max(bound, static_cast<Time>(
            std::ceil(energy / cap - 1e-9)));
    }
    return bound;
}

/** Per group, the busy time placed plus the pinned time still owed. */
Time
NodeBound::disjunctive() const
{
    Time bound = 0;
    for (size_t g = 0; g < groupBusy_.size(); ++g)
        bound = std::max(bound, groupBusy_[g] + remainingPinned_[g]);
    return bound;
}

/**
 * One topological pass recomputing each unplaced task's earliest
 * start from placed finishes, the earliest starts of unplaced
 * predecessors (computed earlier in the same pass), and lag edges;
 * est + tail bounds the makespan.
 */
Time
NodeBound::precedence(const std::vector<Assignment> &assign,
                      const std::vector<Time> &end)
{
    Time bound = 0;
    for (int t : topo_) {
        if (assign[t].scheduled())
            continue;
        Time est = cp_.head[t];
        for (int32_t k = predOff_[t]; k < predOff_[t + 1]; ++k) {
            const Pred &pred = preds_[k];
            Time ready = assign[pred.task].scheduled()
                ? end[pred.task]
                : est_[pred.task] + pred.minDur;
            est = std::max(est, ready);
        }
        for (int32_t k = lagOff_[t]; k < lagOff_[t + 1]; ++k) {
            const Pred &edge = lags_[k];
            Time p_start = assign[edge.task].scheduled()
                ? assign[edge.task].start
                : est_[edge.task];
            est = std::max(est, p_start + edge.minDur);
        }
        est_[t] = est;
        bound = std::max(bound, est + cp_.tail[t]);
    }
    return bound;
}

} // namespace cp
} // namespace hilp
