/**
 * @file
 * Greedy multi-start list scheduling.
 *
 * A serial schedule-generation scheme (SGS) drives a priority list:
 * at each step the highest-priority *eligible* task (all predecessors
 * scheduled) is placed at the earliest feasible start in its best
 * mode. Multiple priority rules plus seeded random restarts produce
 * the incumbent that warm-starts the branch-and-bound search.
 */

#ifndef HILP_CP_LIST_SCHEDULER_HH
#define HILP_CP_LIST_SCHEDULER_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "model.hh"

namespace hilp {
namespace cp {

/** Outcome of one greedy construction. */
struct ListResult
{
    bool feasible = false;
    ScheduleVec schedule;
    Time makespan = 0;
};

/**
 * Run the serial SGS with the given priority permutation (lower
 * position = higher priority; any permutation of 0..n-1 is legal, the
 * SGS only ever places eligible tasks). Mode choice is greedy:
 * minimize completion time, tie-break on duration then total
 * resource usage. Fails (infeasible) when some task cannot be placed
 * within the horizon.
 */
ListResult listSchedule(const Model &model,
                        const std::vector<int> &priority);

/**
 * As listSchedule, but tasks with forced_mode[t] >= 0 may only use
 * that mode. Used by the hill climber to explore mode choices the
 * myopic rule would never take (e.g. a slow low-power unit that
 * frees the budget for a concurrent accelerator).
 */
ListResult listSchedule(const Model &model,
                        const std::vector<int> &priority,
                        const std::vector<int> &forced_mode);

/**
 * Try the built-in priority rules (longest tail, longest processing
 * time, earliest head) plus `random_restarts` seeded random
 * permutations and return the best feasible schedule found.
 */
ListResult bestGreedy(const Model &model, int random_restarts = 8,
                      uint64_t seed = 1);

/**
 * Improve a greedy schedule by hill-climbing over priority
 * permutations: each iteration perturbs the incumbent order (swap or
 * relocate) and keeps the perturbation when the SGS makespan does
 * not get worse. This cheap large-neighbourhood pass substantially
 * tightens incumbents on power-constrained instances where myopic
 * mode choices serialize the schedule. The climb stops after
 * `iterations` passes or at `deadline`, whichever comes first.
 */
ListResult improveGreedy(
    const Model &model, const ListResult &start, int iterations,
    uint64_t seed = 99,
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max());

} // namespace cp
} // namespace hilp

#endif // HILP_CP_LIST_SCHEDULER_HH
