#include "oracles/list_scheduler_ref.hh"

#include <algorithm>
#include <numeric>

#include "cp/bounds.hh"
#include "cp/profile.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/str.hh"

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

ListResult
referenceListSchedule(const Model &model,
                      const std::vector<int> &priority,
                      const std::vector<int> &forced_mode)
{
    const int n = model.numTasks();
    hilp_assert(static_cast<int>(priority.size()) == n);
    hilp_assert(forced_mode.empty() ||
                static_cast<int>(forced_mode.size()) == n);

    std::vector<int> rank(n);
    for (int i = 0; i < n; ++i)
        rank[priority[i]] = i;

    ListResult result;
    result.schedule.tasks.assign(n, Assignment{});
    Profile table(model);

    std::vector<Time> end(n, 0);
    std::vector<Time> start(n, 0);
    std::vector<int> remaining_preds(n, 0);
    for (int t = 0; t < n; ++t) {
        remaining_preds[t] =
            static_cast<int>(model.predecessors(t).size()) +
            static_cast<int>(model.lagPredecessors(t).size());
    }

    std::vector<int> eligible;
    for (int t = 0; t < n; ++t)
        if (remaining_preds[t] == 0)
            eligible.push_back(t);

    int scheduled = 0;
    while (scheduled < n) {
        if (eligible.empty())
            panic("list scheduler ran out of eligible tasks; "
                  "precedence graph must be cyclic");
        // Highest-priority eligible task.
        size_t pick = 0;
        for (size_t i = 1; i < eligible.size(); ++i)
            if (rank[eligible[i]] < rank[eligible[pick]])
                pick = i;
        int t = eligible[pick];
        eligible[pick] = eligible.back();
        eligible.pop_back();

        Time est = 0;
        for (int p : model.predecessors(t))
            est = std::max(est, end[p]);
        for (const Model::LagEdge &edge : model.lagPredecessors(t))
            est = std::max(est, start[edge.other] + edge.lag);

        const Task &task = model.task(t);
        int best_mode = -1;
        Time best_start = -1;
        Time best_complete = 0;
        int only_mode = forced_mode.empty() ? -1 : forced_mode[t];
        for (size_t m = 0; m < task.modes.size(); ++m) {
            if (only_mode >= 0 && static_cast<int>(m) != only_mode)
                continue;
            const Mode &mode = task.modes[m];
            Time start = table.earliestStart(mode, est);
            if (start < 0)
                continue;
            Time complete = start + mode.duration;
            bool better = best_mode < 0 || complete < best_complete;
            if (!better && complete == best_complete) {
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
                best_complete = complete;
            }
        }
        if (best_mode < 0) {
            result.feasible = false;
            return result;
        }
        table.place(task.modes[best_mode], best_start);
        result.schedule.tasks[t] = {best_mode, best_start};
        start[t] = best_start;
        end[t] = best_complete;
        ++scheduled;
        for (int s : model.successors(t))
            if (--remaining_preds[s] == 0)
                eligible.push_back(s);
        for (const Model::LagEdge &edge : model.lagSuccessors(t))
            if (--remaining_preds[edge.other] == 0)
                eligible.push_back(edge.other);
    }

    result.feasible = true;
    result.makespan = result.schedule.makespan(model);
    return result;
}

ListResult
referenceBestGreedy(const Model &model, int random_restarts,
                    uint64_t seed)
{
    const int n = model.numTasks();
    ListResult best;

    auto consider = [&](const std::vector<int> &priority) {
        ListResult r = referenceListSchedule(model, priority, {});
        if (r.feasible && (!best.feasible || r.makespan < best.makespan))
            best = std::move(r);
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
referenceImproveGreedy(const Model &model, const ListResult &start,
                       int iterations, uint64_t seed)
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

    ListResult best = start;
    ListResult reconstructed = referenceListSchedule(model, order, {});
    if (reconstructed.feasible &&
        reconstructed.makespan < best.makespan)
        best = reconstructed;

    Rng rng(seed);
    std::vector<int> forced(n, -1);
    std::vector<int> candidate_order;
    std::vector<int> candidate_forced;
    for (int i = 0; i < iterations; ++i) {
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
            // Force (or release) the mode of a random task.
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
        ListResult result = referenceListSchedule(
            model, candidate_order, candidate_forced);
        if (!result.feasible)
            continue;
        // Accept sideways moves to escape plateaus.
        if (result.makespan <= best.makespan) {
            order = std::move(candidate_order);
            forced = std::move(candidate_forced);
            if (result.makespan < best.makespan)
                best = std::move(result);
        }
    }
    return best;
}

std::string
firstDifference(const ListResult &got, const ListResult &want)
{
    if (got.feasible != want.feasible)
        return format("feasible %d, want %d", got.feasible, want.feasible);
    if (got.makespan != want.makespan)
        return format("makespan %d, want %d", got.makespan, want.makespan);
    if (got.schedule.tasks.size() != want.schedule.tasks.size())
        return format("%zu tasks, want %zu", got.schedule.tasks.size(),
                      want.schedule.tasks.size());
    for (size_t t = 0; t < want.schedule.tasks.size(); ++t) {
        const Assignment &a = got.schedule.tasks[t];
        const Assignment &b = want.schedule.tasks[t];
        if (a.mode != b.mode || a.start != b.start)
            return format("task %zu at mode %d start %d, want mode %d "
                          "start %d", t, a.mode, a.start, b.mode, b.start);
    }
    return "";
}

} // namespace cp
} // namespace hilp
