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
#include <limits>
#include <vector>

#include "model.hh"
#include "profile.hh"

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
 * The serial SGS as a reusable engine. It owns one Profile and every
 * per-run array (ranks, remaining predecessor counts, the eligible
 * set, and two run traces), all sized for the model once, so a run
 * after the first allocates nothing: Profile::clear() empties the
 * occupancy and keeps its storage. bestGreedy and improveGreedy build
 * one engine per call and run it once per candidate.
 *
 * A run records its trace: the task picked at each step, that task's
 * forced mode, and its (mode, start). keep() makes the last run the
 * reference of later runs, which then skip what they share with it.
 * The state before a step is the set of placed tasks with their
 * placements, and the Profile is canonical (equal placement sets,
 * equal representation, equal earliestStart answers). So a run in
 * the reference's state before step k that picks the reference's
 * task with the reference's forced mode places it exactly as the
 * reference did: it copies that placement and asks the profile
 * nothing. A run is in the reference's state while every task it
 * placed sits where the reference put it and they are the
 * reference's first k picks, which also holds again after a
 * reordering that changed no placement. Once a task lands elsewhere,
 * the rest of the run is computed. Copied placements reach the
 * profile only when a later step has to query it.
 *
 * A cutoff ends a run at the first task that completes after it,
 * for callers that discard such a run anyway.
 */
class ListScheduler
{
  public:
    /** A cutoff no run reaches. */
    static constexpr Time kNoCutoff = std::numeric_limits<Time>::max();

    explicit ListScheduler(const Model &model);

    /**
     * One SGS run (see listSchedule for the rules; an empty
     * forced_mode forces nothing). True when every task is placed
     * within the horizon and none completes after `cutoff`; the run
     * stops at the first task that breaks either.
     */
    bool run(const std::vector<int> &priority,
             const std::vector<int> &forced_mode,
             Time cutoff = kNoCutoff);

    /**
     * Make the last run the reference later runs copy from (a failed
     * run lends the steps it placed).
     */
    void keep();

    /** Makespan of the last run, when it returned true. */
    Time makespan() const { return traces_[last_].makespan; }

    /**
     * The last run: feasible with every task's (mode, start) when it
     * returned true, else the tasks it placed and makespan 0.
     */
    ListResult result() const;

  private:
    /** What one run did, step by step and per task. */
    struct Trace
    {
        std::vector<int> pick;       //!< Step -> task placed.
        std::vector<int> pickForced; //!< Step -> its forced mode.
        /** Task -> step; valid when < steps and pick[] agrees. */
        std::vector<int> stepOf;
        std::vector<Assignment> at;  //!< Task -> (mode, start).
        std::vector<Time> end;       //!< Task -> completion.
        int steps = 0;               //!< Steps placed.
        bool complete = false;       //!< Every task placed in time.
        Time makespan = 0;
    };

    /**
     * Best (mode, start) of eligible task t on the current profile:
     * earliest completion, then shortest duration, then least total
     * usage. False when no allowed mode fits before the horizon.
     */
    bool choose(const Trace &trace, int t, int only_mode,
                Assignment *placed, Time *complete) const;

    const Model &model_;
    Profile profile_;
    std::vector<int> predCount_;
    std::vector<int> roots_;
    std::vector<int> rank_;
    std::vector<int> remaining_;
    std::vector<int> eligible_;
    /** The next run's trace is traces_[cur_], the reference the other. */
    Trace traces_[2];
    int cur_ = 0;
    int last_ = 0;
    bool hasReference_ = false;
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
 *
 * Cost: each pass is one ListScheduler run against the accepted
 * order's run. Setting it up and picking a task at each step cost
 * O(n) and O(eligible) as in a full list schedule; a step costs at
 * most one profile query per allowed mode (none for a mode that
 * cannot complete by the best so far) and a place() only from the
 * first task the perturbation moves, and the copied steps before it
 * are replayed into the profile once, there. A pass that moves nothing
 * queries nothing, and a pass stops at the first task that completes
 * after the incumbent, as it could not be accepted.
 */
ListResult improveGreedy(
    const Model &model, const ListResult &start, int iterations,
    uint64_t seed = 99,
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max());

} // namespace cp
} // namespace hilp

#endif // HILP_CP_LIST_SCHEDULER_HH
