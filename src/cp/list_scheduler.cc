#include "list_scheduler.hh"

#include <algorithm>
#include <numeric>

#include "bounds.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "profile.hh"

namespace hilp {
namespace cp {

namespace {

/** Total resource usage of a mode, used only as a greedy tie-break. */
double
totalUsage(const Mode &mode)
{
    double sum = 0.0;
    for (double u : mode.usage)
        sum += u;
    return sum;
}

} // anonymous namespace

ListScheduler::ListScheduler(const Model &model)
    : model_(model),
      profile_(model)
{
    const int n = model.numTasks();
    predCount_.resize(static_cast<size_t>(n));
    for (int t = 0; t < n; ++t) {
        predCount_[t] =
            static_cast<int>(model.predecessors(t).size()) +
            static_cast<int>(model.lagPredecessors(t).size());
        if (predCount_[t] == 0)
            roots_.push_back(t);
    }
    rank_.resize(static_cast<size_t>(n));
    remaining_.resize(static_cast<size_t>(n));
    eligible_.reserve(static_cast<size_t>(n));
    for (Trace &trace : traces_) {
        trace.pick.resize(static_cast<size_t>(n));
        trace.pickForced.resize(static_cast<size_t>(n));
        trace.stepOf.assign(static_cast<size_t>(n), n);
        trace.at.resize(static_cast<size_t>(n));
        trace.end.resize(static_cast<size_t>(n));
    }
}

bool
ListScheduler::choose(const Trace &trace, int t, int only_mode,
                      Assignment *placed, Time *complete) const
{
    Time est = 0;
    for (int p : model_.predecessors(t))
        est = std::max(est, trace.end[p]);
    for (const Model::LagEdge &edge : model_.lagPredecessors(t))
        est = std::max(est, trace.at[edge.other].start + edge.lag);

    const Task &task = model_.task(t);
    int best_mode = -1;
    Time best_start = -1;
    Time best_complete = 0;
    for (size_t m = 0; m < task.modes.size(); ++m) {
        if (only_mode >= 0 && static_cast<int>(m) != only_mode)
            continue;
        const Mode &mode = task.modes[m];
        // It completes at est + duration or later, so past
        // best_complete it can neither beat nor tie the best mode.
        if (best_mode >= 0 && est + mode.duration > best_complete)
            continue;
        Time start = profile_.earliestStart(mode, est);
        if (start < 0)
            continue;
        Time complete_m = start + mode.duration;
        bool better = best_mode < 0 || complete_m < best_complete;
        if (!better && complete_m == best_complete) {
            const Mode &bm = task.modes[best_mode];
            if (mode.duration < bm.duration ||
                (mode.duration == bm.duration &&
                 totalUsage(mode) < totalUsage(bm))) {
                better = true;
            }
        }
        if (better) {
            best_mode = static_cast<int>(m);
            best_start = start;
            best_complete = complete_m;
        }
    }
    if (best_mode < 0)
        return false;
    *placed = {best_mode, best_start};
    *complete = best_complete;
    return true;
}

bool
ListScheduler::run(const std::vector<int> &priority,
                   const std::vector<int> &forced_mode, Time cutoff)
{
    const int n = model_.numTasks();
    hilp_assert(static_cast<int>(priority.size()) == n);
    hilp_assert(forced_mode.empty() ||
                static_cast<int>(forced_mode.size()) == n);

    for (int i = 0; i < n; ++i)
        rank_[priority[i]] = i;
    remaining_ = predCount_;
    eligible_ = roots_;

    Trace &run = traces_[cur_];
    const Trace &ref = traces_[cur_ ^ 1];
    last_ = cur_;
    run.steps = 0;
    run.complete = false;
    run.makespan = 0;

    // `same`: the placed set is the reference's first k picks, each
    // placed as the reference did. `diverged`: some task sits
    // elsewhere (or beyond the reference's trace), so the run never
    // returns to the reference's state. `ref_last` is the latest
    // reference step among the placed tasks. The profile holds this
    // run's first `in_profile` steps, or (while -1) an earlier run.
    bool same = hasReference_;
    bool diverged = !hasReference_;
    int ref_last = -1;
    int in_profile = -1;

    for (int k = 0; k < n; ++k) {
        if (eligible_.empty())
            panic("list scheduler ran out of eligible tasks; "
                  "precedence graph must be cyclic");
        // Highest-priority eligible task.
        size_t pick = 0;
        for (size_t i = 1; i < eligible_.size(); ++i)
            if (rank_[eligible_[i]] < rank_[eligible_[pick]])
                pick = i;
        const int t = eligible_[pick];
        eligible_[pick] = eligible_.back();
        eligible_.pop_back();

        const int only_mode = forced_mode.empty() ? -1 : forced_mode[t];
        Assignment placed;
        Time complete = 0;
        if (same && k < ref.steps && ref.pick[k] == t &&
            ref.pickForced[k] == only_mode) {
            placed = ref.at[t];
            complete = ref.end[t];
        } else {
            // Bring the profile to this run's state: clear it on the
            // first computed step, then replay the copied placements
            // it has not seen.
            if (in_profile < 0) {
                profile_.clear();
                in_profile = 0;
            }
            for (; in_profile < k; ++in_profile) {
                const int u = run.pick[in_profile];
                profile_.place(model_.task(u).modes[run.at[u].mode],
                               run.at[u].start);
            }
            if (!choose(run, t, only_mode, &placed, &complete))
                return false;
            profile_.place(model_.task(t).modes[placed.mode],
                           placed.start);
            in_profile = k + 1;
        }
        run.pick[k] = t;
        run.pickForced[k] = only_mode;
        run.stepOf[t] = k;
        run.at[t] = placed;
        run.end[t] = complete;
        run.steps = k + 1;
        if (complete > cutoff)
            return false;
        run.makespan = std::max(run.makespan, complete);

        if (!diverged) {
            const int s = ref.stepOf[t];
            if (s < ref.steps && ref.pick[s] == t &&
                ref.at[t].mode == placed.mode &&
                ref.at[t].start == placed.start)
                ref_last = std::max(ref_last, s);
            else
                diverged = true;
        }
        // k + 1 distinct tasks, each among the reference's first
        // ref_last + 1 picks: the same set exactly when ref_last == k.
        same = !diverged && ref_last == k;

        for (int s : model_.successors(t))
            if (--remaining_[s] == 0)
                eligible_.push_back(s);
        for (const Model::LagEdge &edge : model_.lagSuccessors(t))
            if (--remaining_[edge.other] == 0)
                eligible_.push_back(edge.other);
    }
    run.complete = true;
    return true;
}

void
ListScheduler::keep()
{
    hilp_assert(last_ == cur_);
    cur_ ^= 1;
    hasReference_ = true;
}

ListResult
ListScheduler::result() const
{
    const Trace &trace = traces_[last_];
    ListResult result;
    result.feasible = trace.complete;
    result.schedule.tasks.assign(
        static_cast<size_t>(model_.numTasks()), Assignment{});
    for (int k = 0; k < trace.steps; ++k)
        result.schedule.tasks[trace.pick[k]] = trace.at[trace.pick[k]];
    if (trace.complete)
        result.makespan = trace.makespan;
    return result;
}

ListResult
listSchedule(const Model &model, const std::vector<int> &priority)
{
    return listSchedule(model, priority, {});
}

ListResult
listSchedule(const Model &model, const std::vector<int> &priority,
             const std::vector<int> &forced_mode)
{
    ListScheduler sgs(model);
    sgs.run(priority, forced_mode);
    return sgs.result();
}

ListResult
bestGreedy(const Model &model, int random_restarts, uint64_t seed)
{
    const int n = model.numTasks();
    ListResult best;
    ListScheduler sgs(model);

    // A rule or restart is kept only when strictly better, so its run
    // stops at the first task that completes at or after the best
    // makespan so far.
    auto consider = [&](const std::vector<int> &priority) {
        Time cutoff = best.feasible ? best.makespan - 1
                                    : ListScheduler::kNoCutoff;
        if (sgs.run(priority, {}, cutoff))
            best = sgs.result();
    };

    CriticalPathData cp = criticalPathData(model);

    // Rule 1: longest tail first (critical-path priority).
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return cp.tail[a] > cp.tail[b];
    });
    consider(order);

    // Rule 2: longest minimum processing time first.
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return model.minDuration(a) > model.minDuration(b);
    });
    consider(order);

    // Rule 3: earliest head first, tail as tie-break.
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        if (cp.head[a] != cp.head[b])
            return cp.head[a] < cp.head[b];
        return cp.tail[a] > cp.tail[b];
    });
    consider(order);

    // Seeded random restarts.
    Rng rng(seed);
    for (int i = 0; i < random_restarts; ++i) {
        std::iota(order.begin(), order.end(), 0);
        rng.shuffle(order);
        consider(order);
    }
    return best;
}

ListResult
improveGreedy(const Model &model, const ListResult &start,
              int iterations, uint64_t seed,
              std::chrono::steady_clock::time_point deadline)
{
    if (!start.feasible || iterations <= 0)
        return start;
    const int n = model.numTasks();
    if (n < 2)
        return start;

    // Recover a priority order from the incumbent schedule: start
    // time, then longest tail.
    CriticalPathData cp = criticalPathData(model);
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        const Assignment &aa = start.schedule.tasks[a];
        const Assignment &ab = start.schedule.tasks[b];
        if (aa.start != ab.start)
            return aa.start < ab.start;
        return cp.tail[a] > cp.tail[b];
    });

    // The reconstructed run is the first reference: every candidate
    // copies the placements it shares with the accepted order's run.
    ListResult best = start;
    std::vector<int> forced(n, -1);
    ListScheduler sgs(model);
    if (sgs.run(order, forced) && sgs.makespan() < best.makespan)
        best = sgs.result();
    sgs.keep();

    Rng rng(seed);
    std::vector<int> candidate_order;
    std::vector<int> candidate_forced;
    for (int i = 0; i < iterations; ++i) {
        // A pass costs at most one full list schedule (tens of
        // microseconds on paper-sized models), so polling every 16
        // passes keeps the overshoot past the deadline well under a
        // millisecond.
        if ((i & 15) == 0 && std::chrono::steady_clock::now() >= deadline)
            break;
        candidate_order = order;
        candidate_forced = forced;
        double dice = rng.uniformDouble();
        if (dice < 0.4) {
            // Swap two positions.
            size_t a = static_cast<size_t>(rng.uniformInt(0, n - 1));
            size_t b = static_cast<size_t>(rng.uniformInt(0, n - 1));
            std::swap(candidate_order[a], candidate_order[b]);
        } else if (dice < 0.7) {
            // Relocate one task to a random position.
            size_t from = static_cast<size_t>(rng.uniformInt(0, n - 1));
            size_t to = static_cast<size_t>(rng.uniformInt(0, n - 1));
            int task = candidate_order[from];
            candidate_order.erase(candidate_order.begin() +
                                  static_cast<ptrdiff_t>(from));
            candidate_order.insert(candidate_order.begin() +
                                   static_cast<ptrdiff_t>(to), task);
        } else {
            // Force (or release) the mode of a random task; this
            // lets the climber trade a slower unit for concurrency
            // the myopic mode rule cannot see.
            int task = static_cast<int>(rng.uniformInt(0, n - 1));
            int num_modes =
                static_cast<int>(model.task(task).modes.size());
            if (rng.chance(0.3)) {
                candidate_forced[task] = -1;
            } else {
                candidate_forced[task] = static_cast<int>(
                    rng.uniformInt(0, num_modes - 1));
            }
        }
        // Sideways moves are accepted to escape plateaus, so any run
        // that completes no later than the incumbent is; the run
        // stops at the first task that completes later.
        if (!sgs.run(candidate_order, candidate_forced, best.makespan))
            continue;
        order.swap(candidate_order);
        forced.swap(candidate_forced);
        if (sgs.makespan() < best.makespan)
            best = sgs.result();
        sgs.keep();
    }
    return best;
}

} // namespace cp
} // namespace hilp
