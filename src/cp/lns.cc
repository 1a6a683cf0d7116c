/** @file Large-neighborhood search implementation. See lns.hh. */

#include "lns.hh"

#include <algorithm>
#include <vector>

#include "list_scheduler.hh"
#include "search.hh"
#include "support/hash.hh"
#include "support/random.hh"

namespace hilp {
namespace cp {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsUntil(Clock::time_point deadline)
{
    if (deadline == Clock::time_point::max())
        return 1e9;
    return std::chrono::duration<double>(deadline - Clock::now())
        .count();
}

/**
 * Priority order of the incumbent: tasks by (start, topological
 * position). Re-running the SGS on this order reproduces a schedule
 * at least as good as the incumbent, so it is the natural base the
 * destroy operators perturb.
 */
std::vector<int>
incumbentOrder(const Model &model, const ScheduleVec &schedule,
               const std::vector<int> &topo_pos)
{
    std::vector<int> order(model.numTasks());
    for (int t = 0; t < model.numTasks(); ++t)
        order[t] = t;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        Time sa = schedule.tasks[a].start;
        Time sb = schedule.tasks[b].start;
        if (sa != sb)
            return sa < sb;
        return topo_pos[a] < topo_pos[b];
    });
    return order;
}

} // anonymous namespace

LnsResult
lnsImprove(const Model &model, const ScheduleVec &incumbent,
           const LnsOptions &options)
{
    LnsResult result;
    result.schedule = incumbent;
    result.makespan = incumbent.makespan(model);
    const int n = model.numTasks();
    if (n == 0)
        return result;

    Clock::time_point deadline = options.deadline;
    if (options.maxSeconds < 1e8) {
        Clock::time_point budget =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(options.maxSeconds));
        if (budget < deadline)
            deadline = budget;
    }

    std::vector<int> topo_pos(n);
    {
        std::vector<int> topo = model.topologicalOrder();
        for (int i = 0; i < n; ++i)
            topo_pos[topo[i]] = i;
    }

    auto gapReached = [&]() {
        if (options.lowerBound <= 0)
            return result.makespan <= 0;
        if (result.makespan <= options.lowerBound)
            return true;
        double gap =
            static_cast<double>(result.makespan - options.lowerBound) /
            static_cast<double>(result.makespan);
        return gap <= options.targetGap;
    };

    // Warm-started bounded B&B: the warm start seeds its incumbent,
    // so the polish can only improve the schedule.
    auto polish = [&]() {
        if (options.polishNodes <= 0 || gapReached())
            return;
        double remaining = secondsUntil(deadline);
        if (remaining <= 0.0)
            return;
        SearchLimits limits;
        limits.maxNodes = options.polishNodes;
        limits.maxSeconds = remaining;
        limits.deadline = deadline;
        limits.targetGap = options.targetGap;
        limits.lowerBound = options.lowerBound;
        SearchResult r = branchAndBound(model, &result.schedule, limits);
        ++result.polishes;
        result.polishNodes += r.nodes;
        if (r.foundSolution && r.bestMakespan < result.makespan) {
            result.schedule = r.best;
            result.makespan = r.bestMakespan;
            ++result.improvements;
        }
    };

    Rng rng(options.seed);
    Hasher trajectory;
    std::vector<int> base = incumbentOrder(model, result.schedule,
                                           topo_pos);
    std::vector<int> forced(n);
    std::vector<char> freed(n);
    std::vector<int> priority;
    std::vector<int> slots;
    std::vector<int> moved;
    ListScheduler sgs(model);

    const int half = options.iterations / 2;
    for (int it = 0; it < options.iterations; ++it) {
        if (gapReached() || Clock::now() >= deadline)
            break;
        if (it == half)
            polish();

        // Destroy: pick a neighborhood of the incumbent to free.
        std::fill(freed.begin(), freed.end(), 0);
        const int op = static_cast<int>(rng.uniformInt(0, 2));
        if (op == 0) {
            // Time window around a random task's start.
            int pivot = static_cast<int>(rng.uniformInt(0, n - 1));
            Time center = result.schedule.tasks[pivot].start;
            Time w = std::max<Time>(1, result.makespan / 4);
            for (int t = 0; t < n; ++t) {
                const Assignment &a = result.schedule.tasks[t];
                Time end = a.start +
                           model.task(t).modes[a.mode].duration;
                if (end >= center - w && a.start <= center + w)
                    freed[t] = 1;
            }
        } else if (op == 1 && model.numGroups() > 0) {
            // One device group's tasks (frees the whole machine).
            int g = static_cast<int>(
                rng.uniformInt(0, model.numGroups() - 1));
            for (int t = 0; t < n; ++t) {
                const Assignment &a = result.schedule.tasks[t];
                if (model.task(t).modes[a.mode].group == g)
                    freed[t] = 1;
            }
        }
        int num_freed = 0;
        for (int t = 0; t < n; ++t)
            num_freed += freed[t];
        if (num_freed == 0) {
            // Group op hit an idle device, or fall-through: free a
            // random subset.
            int k = 2 + static_cast<int>(
                            rng.uniformInt(0, std::max(2, n / 4)));
            for (int i = 0; i < k; ++i)
                freed[rng.uniformInt(0, n - 1)] = 1;
        }
        trajectory.u64(static_cast<uint64_t>(op));
        for (int t = 0; t < n; ++t)
            if (freed[t])
                trajectory.u64(static_cast<uint64_t>(t));
        trajectory.u64(~0ull); // Iteration separator.

        // Repair: fixed tasks keep their incumbent mode, freed tasks
        // re-choose; freed tasks are permuted among their own slots
        // in the incumbent priority order (fixed tasks keep theirs,
        // so the repair stays anchored to the incumbent).
        for (int t = 0; t < n; ++t)
            forced[t] = freed[t] ? -1 : result.schedule.tasks[t].mode;
        priority = base;
        slots.clear();
        moved.clear();
        for (int i = 0; i < n; ++i) {
            if (freed[priority[i]]) {
                slots.push_back(i);
                moved.push_back(priority[i]);
            }
        }
        rng.shuffle(moved);
        for (size_t i = 0; i < slots.size(); ++i)
            priority[slots[i]] = moved[i];

        const bool repaired = sgs.run(priority, forced);
        ++result.iterations;
        if (repaired && sgs.makespan() <= result.makespan) {
            if (sgs.makespan() < result.makespan)
                ++result.improvements;
            result.schedule = sgs.result().schedule;
            result.makespan = sgs.makespan();
            base = incumbentOrder(model, result.schedule, topo_pos);
        }
    }

    polish();
    result.trajectoryDigest = trajectory.digest();
    return result;
}

} // namespace cp
} // namespace hilp
