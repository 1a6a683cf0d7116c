/**
 * @file
 * The solver facade: greedy warm start, lower bounds, and
 * branch-and-bound behind one call, with the optimality-gap
 * accounting HILP's methodology depends on.
 */

#ifndef HILP_CP_SOLVER_HH
#define HILP_CP_SOLVER_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "bounds.hh"
#include "model.hh"
#include "propagate.hh"
#include "support/option_field.hh"

namespace hilp {
namespace cp {

/** Final status of a solve. */
enum class SolveStatus {
    /** Proven optimal (search exhausted or bound met). */
    Optimal,
    /** Gap at or below the target (the paper's "near-optimal"). */
    NearOptimal,
    /** A schedule exists but its gap exceeds the target. */
    Feasible,
    /** Proven: no schedule exists within the horizon. */
    Infeasible,
    /** Limits hit before any schedule was found. */
    NoSolution,
};

/** Human-readable name for a SolveStatus. */
const char *toString(SolveStatus status);

/** Solve effort and stopping configuration. */
struct SolverOptions
{
    /** Branch-and-bound node budget. */
    int64_t maxNodes = 500000;
    /** Wall-clock budget for the search phase, in seconds. */
    double maxSeconds = 5.0;
    /**
     * Absolute monotonic cut-off for the whole solve, shared by
     * every solve of one outer evaluation (see EngineOptions::
     * pointTimeoutS). On expiry the solve returns its incumbent and
     * certified bound instead of running to its per-solve budgets.
     * time_point::max() (the default) disables it.
     */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /**
     * Stop once (makespan - lower bound) / makespan falls to this
     * value. 0.10 is the paper's near-optimality definition; set 0
     * to always search for a proven optimum.
     */
    double targetGap = 0.10;
    /** Compute the LP-relaxation lower bound (tighter, costs an LP). */
    bool useLpBound = true;
    /** Random restarts for the greedy warm start. */
    int greedyRestarts = 8;
    /**
     * The hill climber's budget: priority-order hill-climbing passes
     * that tighten the greedy incumbent before the search (see
     * improveGreedy in list_scheduler.hh). The name is historical;
     * it stays because the wire field `lns_iterations` and perfbench
     * use it.
     */
    int lnsIterations = 400;
    /** Seed for the greedy restarts. */
    uint64_t seed = 1;
    /**
     * Diversification salt mixed into `seed` for every stochastic
     * heuristic (greedy restarts and hill climbing).
     * 0 (the default) reproduces the historical unsalted seeding bit
     * for bit. The engine salts it with the problem fingerprint so
     * different instances sharing a seed explore different heuristic
     * trajectories, and the sweep's fault-isolation retry salts it
     * with the attempt index so a retried point never replays the
     * exact restarts and moves that preceded the failure. The salt
     * only diversifies heuristics: bounds, statuses, and gap
     * certificates are unaffected.
     */
    uint64_t seedSalt = 0;
    /**
     * Branch-and-bound worker threads. 1 (the default) runs one
     * worker from the root with an exact node budget, so node counts
     * are reproducible. Larger values run the work-stealing parallel
     * search (see search.hh). 0 sizes the crew from the
     * process-wide ThreadBudget: the solve borrows whatever slots
     * are currently free (degrading gracefully to serial when a DSE
     * sweep is using the machine) and returns them afterwards.
     */
    int threads = 1;
};

/** Most worker threads a wire request may ask for, per solve or sweep. */
inline constexpr int kMaxThreads = 256;
/** Largest node budget a wire request may set. */
inline constexpr int64_t kMaxNodeBudget = int64_t{1} << 40;

/**
 * The wire fields of SolverOptions and their valid ranges (see
 * hilp/options.hh). `deadline` is runtime state and stays off the
 * wire. The budget caps hold under the engine's escalations (see
 * kEngineOptionFields).
 */
inline constexpr OptionField<SolverOptions> kSolverOptionFields[] = {
    {"max_nodes", &SolverOptions::maxNodes, 1, kMaxNodeBudget},
    {"max_seconds", &SolverOptions::maxSeconds, 1e-3, 1e6},
    {"target_gap", &SolverOptions::targetGap, 0.0, 1.0},
    {"use_lp_bound", &SolverOptions::useLpBound},
    {"greedy_restarts", &SolverOptions::greedyRestarts, 0, 1 << 16},
    {"lns_iterations", &SolverOptions::lnsIterations, 0, 1 << 16},
    {"seed", &SolverOptions::seed, kInt64Min, kInt64Max},
    {"seed_salt", &SolverOptions::seedSalt, kInt64Min, kInt64Max},
    {"threads", &SolverOptions::threads, 0, kMaxThreads},
};

/**
 * The seed every stochastic heuristic of a solve derives from:
 * `seed` itself when no salt is set, otherwise `seed` mixed with
 * `seedSalt`.
 */
uint64_t heuristicSeed(const SolverOptions &options);

/** Effort accounting for a solve. */
struct SolveStats
{
    Time greedyMakespan = 0;  //!< Warm-start makespan (0 if none).
    LowerBounds bounds;       //!< The certified lower bounds.
    int64_t nodes = 0;        //!< Branch-and-bound nodes explored.
    int64_t backtracks = 0;
    int64_t solutions = 0;    //!< Incumbent improvements found.
    bool exhausted = false;   //!< Search tree fully explored.
    double seconds = 0.0;     //!< Total solve wall-clock time.
    /** An external hint schedule was feasible and seeded the search. */
    bool hintAccepted = false;
    /** Makespan of the accepted hint (0 when none). */
    Time hintMakespan = 0;
    /** Worker threads the branch-and-bound actually ran with. */
    int searchThreads = 1;
    /** Parallel search: successful steal operations. */
    int64_t steals = 0;
    /** Parallel search: subproblems published for stealing. */
    int64_t subproblems = 0;
    /** Nodes pruned by a recorded no-good. */
    int64_t nogoodHits = 0;
    /** No-goods recorded into the store. */
    int64_t nogoodsRecorded = 0;
    /** Scratch heap growth during the tree walk, in bytes. */
    int64_t scratchBytes = 0;
    /** Peak live bytes across the search arenas. */
    int64_t arenaHighWater = 0;
    /** Arena rewinds performed by the search. */
    int64_t arenaRewinds = 0;
    /** Per-propagator telemetry from the propagation engine. */
    std::vector<PropagatorStats> propagators;
};

/** A complete solve outcome. */
struct Result
{
    SolveStatus status = SolveStatus::NoSolution;
    ScheduleVec schedule;
    Time makespan = 0;
    /** Certified lower bound on the optimal makespan. */
    Time lowerBound = 0;
    SolveStats stats;

    /** True when a schedule was produced. */
    bool
    hasSchedule() const
    {
        return status == SolveStatus::Optimal ||
               status == SolveStatus::NearOptimal ||
               status == SolveStatus::Feasible;
    }

    /** Relative optimality gap (UB - LB) / UB; 0 for UB == 0. */
    double gap() const;
};

/**
 * The solver: validates the model, builds a greedy incumbent,
 * certifies lower bounds, and runs branch-and-bound. The returned
 * schedule is always re-verified against every model constraint
 * before being handed back (a violation is a solver bug and panics).
 */
class Solver
{
  public:
    Solver() = default;
    explicit Solver(SolverOptions options) : options_(options) {}

    /**
     * Solve the model. Invalid models (see Model::validate) are a
     * user error and terminate via fatal(). Infeasibility is always
     * relative to the model's horizon.
     *
     * `hint` optionally carries an externally produced schedule (for
     * example one transferred from a neighboring DSE configuration).
     * A feasible hint tightens the branch-and-bound's starting upper
     * bound, so the returned makespan is never worse than the hint's;
     * an infeasible or null hint is ignored.
     */
    Result solve(const Model &model,
                 const ScheduleVec *hint = nullptr) const;

    const SolverOptions &options() const { return options_; }

  private:
    SolverOptions options_;
};

} // namespace cp
} // namespace hilp

#endif // HILP_CP_SOLVER_HH
