/**
 * @file
 * The propagation layer of the CP core: modular pruning rules behind
 * one Propagator interface, run at every search node by a
 * PropagationEngine with trail-based exact undo.
 *
 * Historically the branch-and-bound search fused all of its bound and
 * feasibility reasoning into the recursion (one nodeBound pass):
 * resource-energy accounting, disjunctive-group load, and the
 * critical-path pass were inlined and hand-undone on backtrack. This
 * layer extracts each rule into a Propagator:
 *
 *  - "precedence":  critical-path earliest-start propagation over the
 *                   precedence/lag DAG (head/tail bounds).
 *  - "timetable":   timetable-cumulative reasoning - committed plus
 *                   minimum remaining resource energy against each
 *                   capacity.
 *  - "disjunctive": per-group load - busy time already scheduled on a
 *                   device plus the minimum durations still pinned to
 *                   it.
 *
 * The engine owns the shared interval Profile, notifies every
 * propagator of each placement, records placements on a trail so
 * backtracking unwinds *exactly* (integer state throughout), and runs
 * the propagators once per node, in the order they were added: only
 * the precedence rule writes the shared earliest-start vector and no
 * other rule reads it, so one pass is the fixpoint. Each propagator
 * carries its own telemetry (invocations, prunings, sampled time)
 * which flows through SearchResult/SolveStats into the DSE reports.
 *
 * New pruning rules plug in without touching search control flow:
 * implement Propagator, add it to the engine, done.
 */

#ifndef HILP_CP_PROPAGATE_HH
#define HILP_CP_PROPAGATE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bounds.hh"
#include "model.hh"
#include "profile.hh"
#include "support/arena.hh"

namespace hilp {
namespace cp {

/** Telemetry one propagator accumulates over a search. */
struct PropagatorStats
{
    std::string name;
    int64_t invocations = 0; //!< propagate() calls.
    int64_t prunings = 0;    //!< Cutoffs this propagator caused.
    double seconds = 0.0;    //!< Sampled propagate() wall time.
};

/** Merge per-propagator stats into an accumulator, matched by name. */
void mergePropagatorStats(std::vector<PropagatorStats> &into,
                          const std::vector<PropagatorStats> &from);

/**
 * Everything a propagator may read (and the earliest-start vector it
 * may tighten) about the current search node. The assignment/end
 * vectors belong to the search; makespan is the partial schedule's
 * completion time, ub the incumbent to prune against.
 */
struct PropagationContext
{
    const Model &model;
    const CriticalPathData &cp;
    const std::vector<Assignment> &assign;
    const std::vector<Time> &end;
    Time makespan = 0;
    Time externalLowerBound = 0;
    Time ub = 0;
    /**
     * Scratch earliest-start per task, recomputed at every node;
     * only meaningful for unscheduled tasks and only after the
     * precedence propagator has run at the current node.
     */
    std::vector<Time> &est;
};

/**
 * One pruning rule. Propagators see every placement (onPlace) and
 * its exact undo (onUnplace, driven by the engine's trail), so they
 * can keep incremental summaries; propagate() turns the summary into
 * a makespan lower bound for the current node.
 */
class Propagator
{
  public:
    virtual ~Propagator() = default;

    /** Stable identifier used in telemetry and reports. */
    virtual const char *name() const = 0;

    /** Incorporate the placement of task t. */
    virtual void onPlace(int task, const Mode &mode, Time start) = 0;

    /** Exactly undo the matching onPlace (reverse order). */
    virtual void onUnplace(int task, const Mode &mode, Time start) = 0;

    /** What one propagate() invocation produced. */
    struct Outcome
    {
        /** Lower bound on any completion of this partial schedule. */
        Time bound = 0;
    };

    /** Run the rule against the current node. */
    virtual Outcome propagate(const PropagationContext &ctx) = 0;
};

/** The built-in propagators (see file comment for their rules). */
std::unique_ptr<Propagator> makePrecedencePropagator(const Model &model);
std::unique_ptr<Propagator> makeTimetablePropagator(const Model &model);
std::unique_ptr<Propagator> makeDisjunctivePropagator(const Model &model);

/**
 * Owns the shared interval Profile, the propagator set, and the
 * trail. The search places and unwinds decisions exclusively through
 * this engine, so propagator state can never drift out of sync with
 * the profile.
 */
class PropagationEngine
{
  public:
    explicit PropagationEngine(const Model &model);

    /** Register a propagator (fixpoint runs them in add order). */
    void add(std::unique_ptr<Propagator> propagator);

    /** The shared occupancy profile. */
    Profile &profile() { return profile_; }
    const Profile &profile() const { return profile_; }

    /**
     * Commit a placement: updates the profile, notifies every
     * propagator, and pushes a trail entry.
     */
    void place(int task, const Mode &mode, Time start);

    /** Unwind the most recent placement exactly. */
    void undo();

    /** Current trail depth (placements not yet undone). */
    size_t depth() const { return trail_.size(); }

    /**
     * Run every propagator once, in add order, and return the node's
     * makespan lower bound (at least max(ctx.makespan,
     * externalLowerBound)); one pass is the fixpoint (see the file
     * comment). Stops early once the bound reaches ctx.ub - the
     * cutoff is attributed to the propagator that proved it.
     */
    Time fixpoint(PropagationContext &ctx);

    /** Per-propagator telemetry accumulated so far. */
    std::vector<PropagatorStats> stats() const;

    /**
     * Arena backing the trail once it outgrows its inline storage.
     * Never rewound while the engine lives, so spilled storage stays
     * valid; exposed for scratch accounting.
     */
    const support::Arena &stateArena() const { return stateArena_; }

  private:
    struct TrailEntry
    {
        int task;
        const Mode *mode;
        Time start;
    };

    Profile profile_;
    std::vector<std::unique_ptr<Propagator>> propagators_;
    std::vector<PropagatorStats> stats_;
    /**
     * Spill arena for trail_ (declared first so it outlives it).
     * Depth is bounded by the task count, so after one spill past
     * the inline storage the steady state allocates nothing.
     */
    support::Arena stateArena_;
    support::SmallVector<TrailEntry, 64> trail_;
};

} // namespace cp
} // namespace hilp

#endif // HILP_CP_PROPAGATE_HH
