/**
 * @file
 * Depth-first branch-and-bound over serial-SGS decisions.
 *
 * Each node of the search extends a partial schedule by picking an
 * eligible task and one of its modes and placing it at the earliest
 * feasible start. For regular objectives like makespan this schedule
 * space contains an optimal schedule (the classic active-schedule
 * argument for serial schedule generation), so exhausting the tree
 * proves optimality. Pruning uses the incumbent upper bound against
 * per-node critical-path bounds.
 *
 * One worker implementation walks the tree. Each worker owns a
 * profile, a node bound (propagate.hh) and the branching state
 * (decision stack, eligible set, assignment, Zobrist key), and
 * branches the same way everywhere: eligible tasks sorted longest
 * tail first, options sorted by their makespan bound,
 * max(completion + the longest successor tail, start + the longest
 * lag plus tail), and pruned when that bound cannot beat the
 * incumbent. How many workers run and how they share work is the
 * only thing the thread count changes:
 *
 *  - threads <= 1: one worker searches the whole tree from the root
 *    against a private incumbent and a private no-good store (its
 *    thread's table, reset at its first record). There is no
 *    frontier, no deque and no crew thread; the node budget is
 *    exact (checked on every node), so node counts and incumbents
 *    are reproducible.
 *  - threads >= 2: the tree is decomposed into *subproblems* -
 *    decision prefixes from the root - that a crew of workers
 *    searches.
 *     - Frontier splitting: nodes above a fixed split depth (4) are
 *       expanded into child subproblems pushed onto the owning
 *       worker's deque instead of being recursed into; deeper nodes
 *       also spill their children whenever other workers are
 *       starving, so one hard subtree cannot serialize the crew.
 *     - Chase-Lev-style deques: the owner pushes and pops at the
 *       bottom (depth-first order, so a deque holds roughly the
 *       siblings along the current path), thieves steal half from
 *       the top - the shallowest, largest subtrees.
 *     - Shared incumbent: the best makespan is a CAS-updated atomic
 *       every worker prunes against; the schedule itself is
 *       published under a mutex by whichever worker wins the CAS.
 *     - Bound aggregation: every queued or in-flight subproblem
 *       keeps its certified lower bound registered in a global
 *       aggregator, so the targetGap stop can use min(incumbent, min
 *       over remaining subtrees) as a sound global lower bound
 *       instead of only the weaker external bound.
 *     - Shared no-goods: the crew records into and prunes against
 *       one store (see nogood.hh for why a bound one worker records
 *       holds for all).
 *
 * Every thread count returns the same optimal makespans and the same
 * exhausted/foundSolution statuses; only node counts differ (pruning
 * happens in a different order, and in a run-dependent one above one
 * thread). See tests/cp/test_parallel_search.cc for the differential
 * guarantee and tests/cp/test_search.cc for the pinned single-thread
 * trees.
 */

#ifndef HILP_CP_SEARCH_HH
#define HILP_CP_SEARCH_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "model.hh"
#include "propagate.hh"

namespace hilp {
namespace cp {

/** Resource limits and stopping conditions for the search. */
struct SearchLimits
{
    /** Maximum number of branch nodes explored. */
    int64_t maxNodes = 500000;
    /** Wall-clock budget in seconds. */
    double maxSeconds = 5.0;
    /**
     * Absolute monotonic cut-off for the search, on top of (and
     * independent of) maxSeconds. Unlike maxSeconds, which is
     * per-solve, the deadline is shared by every solve of one outer
     * evaluation (all resolution refinements and escalations), so a
     * single slow point cannot overrun its wall-clock budget by
     * re-solving. time_point::max() (the default) disables it.
     */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /**
     * Stop as soon as (UB - lowerBound) / UB <= targetGap. The
     * paper's near-optimality threshold is 0.1; use 0 to search for
     * a proven optimum.
     */
    double targetGap = 0.0;
    /**
     * Certified external lower bound on the optimum (from the bounds
     * engine); used for the targetGap stop and for pruning.
     */
    Time lowerBound = 0;
    /**
     * Worker threads for the tree walk: 1 (the default) runs one
     * worker from the root with exact budgets, more run the
     * work-stealing crew (see the file comment).
     */
    int threads = 1;
};

/** Outcome of the branch-and-bound search. */
struct SearchResult
{
    /** True when a complete schedule was found (or warm-started). */
    bool foundSolution = false;
    /**
     * True when the tree was exhausted: the incumbent is optimal, or
     * no solution exists within the horizon if none was found.
     */
    bool exhausted = false;
    ScheduleVec best;
    Time bestMakespan = 0;
    int64_t nodes = 0;
    int64_t backtracks = 0;
    int64_t solutions = 0;
    /** Worker threads that actually ran the search. */
    int threadsUsed = 1;
    /** Parallel search: successful steal operations. */
    int64_t steals = 0;
    /** Parallel search: subproblems published for stealing. */
    int64_t subproblems = 0;
    /** Nodes pruned by a recorded no-good. */
    int64_t nogoodHits = 0;
    /** No-goods recorded into the store. */
    int64_t nogoodsRecorded = 0;
    /**
     * Heap bytes the search scratch grew by *during* the tree walk
     * (per-depth branching vectors and profile storage). Near zero in
     * steady state: each depth's vectors grow on its first few visits
     * and are reused after that.
     */
    int64_t scratchBytes = 0;
    /**
     * Per-rule telemetry, aggregated (by rule name) across every
     * worker's node bound.
     */
    std::vector<PropagatorStats> propagators;
};

/**
 * Run branch-and-bound on the model. When warm_start is non-null it
 * must be a feasible schedule; it seeds the incumbent so the search
 * only explores strictly better schedules.
 */
SearchResult branchAndBound(const Model &model,
                            const ScheduleVec *warm_start,
                            const SearchLimits &limits);

} // namespace cp
} // namespace hilp

#endif // HILP_CP_SEARCH_HH
