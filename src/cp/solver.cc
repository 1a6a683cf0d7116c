#include "solver.hh"

#include <algorithm>
#include <chrono>

#include "list_scheduler.hh"
#include "search.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/thread_budget.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

namespace hilp {
namespace cp {

const char *
toString(SolveStatus status)
{
    switch (status) {
      case SolveStatus::Optimal:
        return "optimal";
      case SolveStatus::NearOptimal:
        return "near-optimal";
      case SolveStatus::Feasible:
        return "feasible";
      case SolveStatus::Infeasible:
        return "infeasible";
      case SolveStatus::NoSolution:
        return "no-solution";
    }
    return "unknown";
}

uint64_t
heuristicSeed(const SolverOptions &options)
{
    if (options.seedSalt == 0)
        return options.seed;
    Hasher hasher;
    hasher.u64(options.seed);
    hasher.u64(options.seedSalt);
    return hasher.digest();
}

double
Result::gap() const
{
    if (makespan <= 0)
        return 0.0;
    return static_cast<double>(makespan - lowerBound) /
           static_cast<double>(makespan);
}

Result
Solver::solve(const Model &model, const ScheduleVec *hint) const
{
    auto start_time = std::chrono::steady_clock::now();
    trace::Span solve_span("cp.solve",
                           trace::Arg::intArg("tasks", model.numTasks()));

    std::string problem = model.validate();
    if (!problem.empty())
        fatal("invalid scheduling model: %s", problem.c_str());

    Result result;

    // Lower bounds first: they prune the greedy/search work.
    {
        TRACE_SPAN("cp.bounds");
        result.stats.bounds =
            computeLowerBounds(model, options_.useLpBound);
    }
    result.lowerBound = result.stats.bounds.best();

    // An external hint (e.g. a schedule transferred from a similar
    // problem) participates as an incumbent candidate when feasible.
    Time hint_makespan = 0;
    bool hint_ok = false;
    if (hint && checkSchedule(model, *hint).empty()) {
        hint_ok = true;
        hint_makespan = hint->makespan(model);
        result.stats.hintAccepted = true;
        result.stats.hintMakespan = hint_makespan;
    }

    // Greedy warm start, refined by priority-order hill climbing.
    const uint64_t heuristic_seed = heuristicSeed(options_);
    ListResult greedy;
    {
        TRACE_SPAN("cp.greedy");
        greedy = bestGreedy(model, options_.greedyRestarts,
                            heuristic_seed);
        if (greedy.feasible) {
            // Skip the refinement when the greedy (or the hint) is
            // already provably within the target gap.
            Time incumbent = hint_ok
                ? std::min(greedy.makespan, hint_makespan)
                : greedy.makespan;
            double greedy_gap = incumbent > 0
                ? static_cast<double>(incumbent - result.lowerBound) /
                  static_cast<double>(incumbent)
                : 0.0;
            // Past the deadline the cheap greedy incumbent is all we
            // spend: incumbent refinement and the tree search are
            // skipped.
            if (greedy_gap > options_.targetGap &&
                std::chrono::steady_clock::now() < options_.deadline)
                greedy = improveGreedy(model, greedy,
                                       options_.lnsIterations,
                                       heuristic_seed + 1,
                                       options_.deadline);
            result.stats.greedyMakespan = greedy.makespan;
        }
    }

    // Branch and bound, warm-started with the best incumbent.
    const ScheduleVec *warm = nullptr;
    if (greedy.feasible &&
        (!hint_ok || greedy.makespan <= hint_makespan))
        warm = &greedy.schedule;
    else if (hint_ok)
        warm = hint;

    SearchLimits limits;
    limits.maxNodes = options_.maxNodes;
    limits.maxSeconds = options_.maxSeconds;
    limits.deadline = options_.deadline;
    limits.targetGap = options_.targetGap;
    limits.lowerBound = result.lowerBound;

    // threads == 0 means "borrow what the machine has to spare":
    // the caller's own thread is implicitly budgeted, extra workers
    // come from the process-wide budget and go back when the search
    // finishes. Non-blocking, so a solve inside a busy DSE sweep
    // degrades to serial instead of oversubscribing.
    ThreadBudget::Lease extra_lease;
    if (options_.threads == 0) {
        ThreadBudget &budget = ThreadBudget::global();
        extra_lease = budget.lease(budget.total() - 1);
        limits.threads = 1 + extra_lease.count();
    } else {
        limits.threads = std::max(1, options_.threads);
    }

    // An already-expired deadline still returns the incumbent (and
    // its certified bound): one node records the warm start and stops.
    if (std::chrono::steady_clock::now() >= options_.deadline)
        limits.maxNodes = 1;

    SearchResult search = branchAndBound(model, warm, limits);
    extra_lease.reset();

    result.stats.nodes = search.nodes;
    result.stats.backtracks = search.backtracks;
    result.stats.solutions = search.solutions;
    result.stats.exhausted = search.exhausted;
    result.stats.propagators = search.propagators;
    result.stats.searchThreads = search.threadsUsed;
    result.stats.steals = search.steals;
    result.stats.subproblems = search.subproblems;
    result.stats.nogoodHits = search.nogoodHits;
    result.stats.nogoodsRecorded = search.nogoodsRecorded;
    result.stats.scratchBytes = search.scratchBytes;

    if (search.foundSolution) {
        result.schedule = search.best;
        result.makespan = search.bestMakespan;
        if (search.exhausted) {
            // The tree is exhausted: the incumbent is the optimum and
            // the lower bound can be promoted to it.
            result.lowerBound = result.makespan;
        }
        if (result.lowerBound >= result.makespan) {
            result.lowerBound = result.makespan;
            result.status = SolveStatus::Optimal;
        } else if (result.gap() <= options_.targetGap) {
            result.status = SolveStatus::NearOptimal;
        } else {
            result.status = SolveStatus::Feasible;
        }
        // Self-check: a constraint violation here is a solver bug.
        std::string violation = checkSchedule(model, result.schedule);
        if (!violation.empty())
            panic("solver produced an invalid schedule: %s",
                  violation.c_str());
    } else if (search.exhausted ||
               result.lowerBound > model.horizon()) {
        // A certified bound past the horizon proves infeasibility
        // even when a deadline cut the search to one node.
        result.status = SolveStatus::Infeasible;
    } else {
        result.status = SolveStatus::NoSolution;
    }

    result.stats.seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start_time).count();

    metrics::counter("cp.solves").add(1);
    metrics::histogram("cp.solve_us")
        .record(static_cast<int64_t>(result.stats.seconds * 1e6));
    solve_span.arg(trace::Arg::strArg("status", toString(result.status)));
    solve_span.arg(trace::Arg::intArg("makespan", result.makespan));
    return result;
}

} // namespace cp
} // namespace hilp
