#include "propagate.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "support/logging.hh"
#include "support/trace.hh"

namespace hilp {
namespace cp {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Timing every propagate() call would cost two clock reads per rule
 * per node; instead every kTimingSample-th invocation is timed and
 * extrapolated. Keep it a power of two.
 */
constexpr int64_t kTimingSample = 16;

/**
 * Sampling rate for per-rule trace spans when tracing is enabled: a
 * fixpoint runs per search node, so tracing every propagate() call
 * would saturate the trace buffers in milliseconds. One span per
 * kTraceSample invocations keeps the timeline representative while
 * a full solve stays within the per-thread event budget. Power of
 * two.
 */
constexpr int64_t kTraceSample = 1024;

/**
 * Timetable-cumulative reasoning: per resource, the energy already
 * committed plus the minimum energy every unscheduled task must still
 * commit, divided by capacity, bounds any completion's makespan.
 *
 * The accumulators deliberately stay in double precision with the
 * exact same update expressions the search historically used inline,
 * so the produced bounds are bit-identical to the pre-refactor code
 * (the trail replays additions and subtractions in reverse order, so
 * each accumulator sees the identical operation sequence).
 */
class TimetablePropagator final : public Propagator
{
  public:
    explicit TimetablePropagator(const Model &model)
    {
        const int n = model.numTasks();
        minEnergy_.assign(n, std::vector<double>(
            model.numResources(), 0.0));
        remainingEnergy_.assign(model.numResources(), 0.0);
        placedEnergy_.assign(model.numResources(), 0.0);
        for (int t = 0; t < n; ++t) {
            const Task &task = model.task(t);
            for (int r = 0; r < model.numResources(); ++r) {
                double min_e = -1.0;
                for (const Mode &mode : task.modes) {
                    double e = mode.usage[r] *
                        static_cast<double>(mode.duration);
                    if (min_e < 0.0 || e < min_e)
                        min_e = e;
                }
                minEnergy_[t][r] = std::max(0.0, min_e);
                remainingEnergy_[r] += minEnergy_[t][r];
            }
        }
    }

    const char *name() const override { return "timetable"; }

    void
    onPlace(int task, const Mode &mode, Time start) override
    {
        (void)start;
        for (size_t r = 0; r < remainingEnergy_.size(); ++r) {
            remainingEnergy_[r] -= minEnergy_[task][r];
            placedEnergy_[r] += mode.usage[r] *
                static_cast<double>(mode.duration);
        }
    }

    void
    onUnplace(int task, const Mode &mode, Time start) override
    {
        (void)start;
        for (size_t r = 0; r < remainingEnergy_.size(); ++r) {
            remainingEnergy_[r] += minEnergy_[task][r];
            placedEnergy_[r] -= mode.usage[r] *
                static_cast<double>(mode.duration);
        }
    }

    Outcome
    propagate(const PropagationContext &ctx) override
    {
        Outcome out;
        for (int r = 0; r < ctx.model.numResources(); ++r) {
            double cap = ctx.model.capacity(r);
            if (cap <= 0.0)
                continue;
            double energy = placedEnergy_[r] + remainingEnergy_[r];
            out.bound = std::max(out.bound, static_cast<Time>(
                std::ceil(energy / cap - 1e-9)));
        }
        return out;
    }

  private:
    std::vector<std::vector<double>> minEnergy_;
    std::vector<double> remainingEnergy_;
    std::vector<double> placedEnergy_;
};

/**
 * Disjunctive-group load: busy time already scheduled on each group
 * plus the minimum durations of unscheduled tasks whose every mode is
 * pinned to that group. Pure integer state.
 */
class DisjunctivePropagator final : public Propagator
{
  public:
    explicit DisjunctivePropagator(const Model &model)
        : model_(model)
    {
        const int n = model.numTasks();
        pinnedGroup_.assign(n, kNoGroup);
        groupBusy_.assign(model.numGroups(), 0);
        remainingPinned_.assign(model.numGroups(), 0);
        for (int t = 0; t < n; ++t) {
            const Task &task = model.task(t);
            int group = task.modes[0].group;
            bool pinned = group != kNoGroup;
            for (const Mode &mode : task.modes)
                pinned = pinned && mode.group == group;
            if (pinned) {
                pinnedGroup_[t] = group;
                remainingPinned_[group] += model.minDuration(t);
            }
        }
    }

    const char *name() const override { return "disjunctive"; }

    void
    onPlace(int task, const Mode &mode, Time start) override
    {
        (void)start;
        if (pinnedGroup_[task] != kNoGroup)
            remainingPinned_[pinnedGroup_[task]] -=
                model_.minDuration(task);
        if (mode.group != kNoGroup)
            groupBusy_[mode.group] += mode.duration;
    }

    void
    onUnplace(int task, const Mode &mode, Time start) override
    {
        (void)start;
        if (pinnedGroup_[task] != kNoGroup)
            remainingPinned_[pinnedGroup_[task]] +=
                model_.minDuration(task);
        if (mode.group != kNoGroup)
            groupBusy_[mode.group] -= mode.duration;
    }

    Outcome
    propagate(const PropagationContext &ctx) override
    {
        (void)ctx;
        Outcome out;
        for (size_t g = 0; g < groupBusy_.size(); ++g) {
            out.bound = std::max(out.bound, groupBusy_[g] +
                                 remainingPinned_[g]);
        }
        return out;
    }

  private:
    const Model &model_;
    std::vector<int> pinnedGroup_;
    std::vector<Time> groupBusy_;
    std::vector<Time> remainingPinned_;
};

/**
 * Precedence bounds: one topological pass recomputing each
 * unscheduled task's earliest start from scheduled finishes, the
 * earliest starts of unscheduled predecessors (computed earlier in
 * the same pass), and lag edges; est + tail bounds the makespan.
 * Publishes the earliest starts through the context for downstream
 * propagators.
 */
class PrecedencePropagator final : public Propagator
{
  public:
    explicit PrecedencePropagator(const Model &model)
        : topo_(model.topologicalOrder())
    {
        // Flatten the per-task predecessor and lag-edge lists into
        // CSR arrays and bake each predecessor's min duration next
        // to its index: this pass runs at every search node, and
        // chasing a vector-of-vectors there costs a cache miss per
        // task.
        const int n = model.numTasks();
        predOff_.reserve(static_cast<size_t>(n) + 1);
        lagOff_.reserve(static_cast<size_t>(n) + 1);
        predOff_.push_back(0);
        lagOff_.push_back(0);
        for (int t = 0; t < n; ++t) {
            for (int p : model.predecessors(t))
                preds_.push_back({p, model.minDuration(p)});
            predOff_.push_back(
                static_cast<int32_t>(preds_.size()));
            for (const Model::LagEdge &edge :
                 model.lagPredecessors(t))
                lags_.push_back({edge.other, edge.lag});
            lagOff_.push_back(static_cast<int32_t>(lags_.size()));
        }
    }

    const char *name() const override { return "precedence"; }

    void onPlace(int, const Mode &, Time) override {}
    void onUnplace(int, const Mode &, Time) override {}

    Outcome
    propagate(const PropagationContext &ctx) override
    {
        Outcome out;
        for (int t : topo_) {
            if (ctx.assign[t].scheduled())
                continue;
            Time est = ctx.cp.head[t];
            for (int32_t k = predOff_[t]; k < predOff_[t + 1]; ++k) {
                const Pred &pred = preds_[k];
                Time ready = ctx.assign[pred.task].scheduled()
                    ? ctx.end[pred.task]
                    : ctx.est[pred.task] + pred.minDur;
                est = std::max(est, ready);
            }
            for (int32_t k = lagOff_[t]; k < lagOff_[t + 1]; ++k) {
                const Pred &edge = lags_[k];
                Time p_start = ctx.assign[edge.task].scheduled()
                    ? ctx.assign[edge.task].start
                    : ctx.est[edge.task];
                est = std::max(est, p_start + edge.minDur);
            }
            ctx.est[t] = est;
            out.bound = std::max(out.bound, est + ctx.cp.tail[t]);
        }
        return out;
    }

  private:
    /** A predecessor and its cached min duration (or lag). */
    struct Pred
    {
        int32_t task;
        Time minDur;
    };

    std::vector<int> topo_;
    std::vector<int32_t> predOff_;
    std::vector<Pred> preds_;
    std::vector<int32_t> lagOff_;
    std::vector<Pred> lags_;
};

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

std::unique_ptr<Propagator>
makePrecedencePropagator(const Model &model)
{
    return std::make_unique<PrecedencePropagator>(model);
}

std::unique_ptr<Propagator>
makeTimetablePropagator(const Model &model)
{
    return std::make_unique<TimetablePropagator>(model);
}

std::unique_ptr<Propagator>
makeDisjunctivePropagator(const Model &model)
{
    return std::make_unique<DisjunctivePropagator>(model);
}

PropagationEngine::PropagationEngine(const Model &model)
    : profile_(model),
      trail_(&stateArena_)
{}

void
PropagationEngine::add(std::unique_ptr<Propagator> propagator)
{
    PropagatorStats stats;
    stats.name = propagator->name();
    stats_.push_back(std::move(stats));
    propagators_.push_back(std::move(propagator));
}

void
PropagationEngine::place(int task, const Mode &mode, Time start)
{
    profile_.place(mode, start);
    for (const std::unique_ptr<Propagator> &p : propagators_)
        p->onPlace(task, mode, start);
    trail_.push_back(TrailEntry{task, &mode, start});
}

void
PropagationEngine::undo()
{
    hilp_assert(!trail_.empty());
    TrailEntry entry = trail_.back();
    trail_.pop_back();
    // Reverse notification order, so propagators unwind placements
    // exactly opposite to how they saw them.
    for (auto it = propagators_.rbegin();
         it != propagators_.rend(); ++it)
        (*it)->onUnplace(entry.task, *entry.mode, entry.start);
    profile_.remove(*entry.mode, entry.start);
}

Time
PropagationEngine::fixpoint(PropagationContext &ctx)
{
    Time bound = std::max(ctx.makespan, ctx.externalLowerBound);
    for (size_t i = 0; i < propagators_.size(); ++i) {
        // The base bound (or an earlier propagator) may already have
        // proven the cutoff; don't charge it to the next rule.
        if (bound >= ctx.ub)
            break;
        PropagatorStats &stats = stats_[i];
        Propagator::Outcome out;
        // Every kTraceSample-th invocation of a rule becomes a span
        // on the trace timeline; a null name keeps the span a no-op
        // on the unsampled (or untraced) calls.
        bool traced = trace::enabled() &&
            (stats.invocations & (kTraceSample - 1)) == 0;
        trace::Span span(traced ? propagators_[i]->name() : nullptr);
        if ((stats.invocations & (kTimingSample - 1)) == 0) {
            Clock::time_point t0 = Clock::now();
            out = propagators_[i]->propagate(ctx);
            stats.seconds += std::chrono::duration<double>(
                Clock::now() - t0).count() *
                static_cast<double>(kTimingSample);
        } else {
            out = propagators_[i]->propagate(ctx);
        }
        if (traced)
            span.arg(trace::Arg::intArg("bound", out.bound));
        ++stats.invocations;
        bound = std::max(bound, out.bound);
        if (out.bound >= ctx.ub)
            ++stats.prunings;
    }
    return bound;
}

std::vector<PropagatorStats>
PropagationEngine::stats() const
{
    return stats_;
}

} // namespace cp
} // namespace hilp
