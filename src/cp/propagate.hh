/**
 * @file
 * The node bound of the branch-and-bound search: three fixed pruning
 * rules, kept incrementally across placements and run once per node.
 *
 *  - "timetable":   timetable-cumulative reasoning - committed plus
 *                   minimum remaining resource energy against each
 *                   capacity.
 *  - "disjunctive": per-group load - busy time already scheduled on a
 *                   device plus the minimum durations still pinned to
 *                   it.
 *  - "precedence":  critical-path earliest-start propagation over the
 *                   precedence/lag DAG (head/tail bounds).
 *
 * The search owns the decision stack and the occupancy Profile; it
 * tells the bound of every placement and of its exact undo (integer
 * state throughout, except the timetable's double accumulators, which
 * see the same additions and subtractions in LIFO order). Each rule
 * carries its own telemetry (invocations, prunings, sampled time),
 * which flows through SearchResult/SolveStats into the DSE reports.
 */

#ifndef HILP_CP_PROPAGATE_HH
#define HILP_CP_PROPAGATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bounds.hh"
#include "model.hh"

namespace hilp {
namespace cp {

/** Telemetry one pruning rule accumulates over a search. */
struct PropagatorStats
{
    std::string name;
    int64_t invocations = 0; //!< Times the rule ran.
    int64_t prunings = 0;    //!< Cutoffs this rule caused.
    double seconds = 0.0;    //!< Sampled wall time of its runs.
};

/** Merge per-rule stats into an accumulator, matched by name. */
void mergePropagatorStats(std::vector<PropagatorStats> &into,
                          const std::vector<PropagatorStats> &from);

/**
 * The makespan lower bound of a search node. place()/remove() keep
 * the timetable and disjunctive summaries in step with the search's
 * placements (remove() must undo the latest place()); bound() turns
 * them, and one topological pass over the partial schedule, into the
 * node's bound.
 */
class NodeBound
{
  public:
    /** `cp` must outlive the bound. */
    NodeBound(const Model &model, const CriticalPathData &cp);

    /** Account for task placed in mode. */
    void place(int task, const Mode &mode);

    /** Exactly undo the latest place(task, mode). */
    void remove(int task, const Mode &mode);

    /**
     * A lower bound on every completion of the partial schedule
     * (assign/end per task, completion `makespan`), at least
     * max(makespan, lowerBound). The rules run in the fixed order
     * timetable, disjunctive, precedence, and the pass stops once the
     * bound reaches ub; that cutoff is credited to the rule that
     * proved it.
     */
    Time bound(const std::vector<Assignment> &assign,
               const std::vector<Time> &end, Time makespan,
               Time lowerBound, Time ub);

    /** Per-rule telemetry accumulated so far, in rule order. */
    const std::vector<PropagatorStats> &stats() const
    { return stats_; }

  private:
    Time timetable() const;
    Time disjunctive() const;
    Time precedence(const std::vector<Assignment> &assign,
                    const std::vector<Time> &end);

    /** A predecessor and its min duration, or a lag source and lag. */
    struct Pred
    {
        int32_t task;
        Time minDur;
    };

    const Model &model_;
    const CriticalPathData &cp_;
    std::vector<PropagatorStats> stats_;

    // Timetable: per task and resource (task-major) the least energy
    // any mode commits, and per resource the energy still owed by
    // unplaced tasks and the energy placed.
    std::vector<double> minEnergy_;
    std::vector<double> remainingEnergy_;
    std::vector<double> placedEnergy_;

    // Disjunctive: the group every mode of a task is pinned to (or
    // kNoGroup), and per group the busy time placed and the minimum
    // durations of unplaced pinned tasks.
    std::vector<int> pinnedGroup_;
    std::vector<Time> groupBusy_;
    std::vector<Time> remainingPinned_;

    // Precedence: the topological order, the predecessor and lag
    // lists as CSR arrays, and each unplaced task's earliest start,
    // recomputed by every pass.
    std::vector<int> topo_;
    std::vector<int32_t> predOff_;
    std::vector<Pred> preds_;
    std::vector<int32_t> lagOff_;
    std::vector<Pred> lags_;
    std::vector<Time> est_;
};

} // namespace cp
} // namespace hilp

#endif // HILP_CP_PROPAGATE_HH
