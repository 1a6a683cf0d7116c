/**
 * @file
 * The design-space explorer: evaluate a workload on every SoC in a
 * configuration list under MA, HILP, or Gables semantics, in
 * parallel, and report speedup/area/WLP per design point (the data
 * behind Figures 7 and 8). This is the one sweep core: the
 * evaluation service (service/eval_service.hh) and the distributed
 * workers run their sweeps through exploreSpace too.
 *
 * HILP sweeps reuse solver work across configurations (see
 * DESIGN.md section 7): configs are ordered into similarity chains
 * (same CPU cores and DSA allocation, ascending GPU size) so each
 * solve warm-starts from its neighbor's schedule, identical lowered
 * instances are served from a fingerprint-keyed cache, and each
 * chain's own list of completed (area, makespan) points lets a config
 * those points provably dominate skip resolution refinement. Reuse
 * changes effort, never certified results; set
 * DseOptions::reuse = false for the cold-start behavior, which runs
 * every config as a chain of its own with none of that state.
 */

#ifndef HILP_DSE_EXPLORE_HH
#define HILP_DSE_EXPLORE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arch/soc.hh"
#include "hilp/builder.hh"
#include "hilp/engine.hh"
#include "pareto.hh"
#include "workload/workload.hh"

namespace hilp {
namespace dse {

class SweepCheckpoint;

/** Which performance model evaluates the design points. */
enum class ModelKind { MultiAmdahl, Hilp, Gables };

/** Human-readable model name. */
const char *toString(ModelKind kind);

/** One evaluated design point. */
struct DsePoint
{
    arch::SocConfig config;
    double areaMm2 = 0.0;
    bool ok = false;        //!< The workload could be scheduled.
    double makespanS = 0.0;
    double speedup = 0.0;   //!< Vs. 1-CPU fully sequential execution.
    double gap = 0.0;       //!< Optimality gap (0 for MA).
    double averageWlp = 0.0;
    AccelMix mix = AccelMix::None;

    /**
     * Why the point failed when ok is false: the spec's
     * infeasibility reason ("unschedulable under budget") or the
     * solver's terminal status ("solver gave up"). Empty on success.
     */
    std::string note;
    /** Final solver status (Optimal for the analytic MA model). */
    cp::SolveStatus status = cp::SolveStatus::NoSolution;
    /**
     * Instance identity across runs: ProblemSpec::fingerprint() of
     * the lowered problem (0 when lowering never happened, e.g. a
     * fault before the build). Keys the sweep checkpoint.
     */
    uint64_t fingerprint = 0;

    // Robustness outcome flags (see DESIGN.md section 10).
    /**
     * The per-point deadline expired mid-evaluation: the makespan and
     * gap come from the best incumbent, still certified but possibly
     * wider than an unconstrained evaluation's.
     */
    bool degraded = false;
    /**
     * The evaluation threw (and the retry failed too); note carries
     * the exception text. The rest of the sweep was unaffected.
     */
    bool errored = false;
    /** Served from a --resume checkpoint instead of re-evaluated. */
    bool resumed = false;

    /**
     * Trace context of the request that evaluated this point (0 in
     * batch mode). Stamped by exploreSpace, carried into checkpoint
     * records and streamed daemon responses so a point can be joined
     * against its request's spans and flight-recorder entry.
     */
    uint64_t traceId = 0;

    // Solver-effort telemetry (zero for MA and for cache hits).
    int64_t nodes = 0;        //!< B&B nodes across all solves.
    int64_t backtracks = 0;   //!< B&B backtracks across all solves.
    int solves = 0;           //!< CP solves (resolutions x attempts).
    double solveSeconds = 0.0; //!< Solver wall-clock spent.
    bool cacheHit = false;    //!< Served from the sweep's solve cache.
    bool warmStarted = false; //!< Neighbor schedule seeded the solve.
    bool pruned = false;      //!< Refinement skipped: point dominated.
    /**
     * Per-propagator telemetry merged across the point's solves
     * (empty for MA/Gables and for cache hits).
     */
    std::vector<cp::PropagatorStats> propagators;

    /**
     * Set config, areaMm2 and mix, which follow from the config
     * alone (records carry only its label).
     */
    void setConfig(const arch::SocConfig &soc);
};

/**
 * Sees every completed point of a sweep, from its worker threads, in
 * arbitrary order. The schedule is non-null for ok HILP points the
 * sweep solved itself, reuse on or off.
 */
using PointSink =
    std::function<void(const DsePoint &point, const Schedule *schedule)>;

/** Exploration configuration. */
struct DseOptions
{
    EngineOptions engine = EngineOptions::explorationMode();
    BuildOptions build;
    /** Worker threads; 0 = hardware concurrency. */
    int threads = 0;
    /**
     * Enable cross-config solver reuse for HILP sweeps (warm-start
     * chains, the solve memo and its hints, dominance pruning). Off
     * reproduces the cold-start behavior exactly: the sweep neither
     * reads nor fills any memo.
     */
    bool reuse = true;
    /**
     * Optional solve memo shared across sweeps. Entries are keyed by
     * instance and engine options, so sweeps with differing options
     * may share one. Null means one private memo per exploreSpace
     * call.
     */
    SolveMemo *memo = nullptr;
    /**
     * Optional sweep checkpoint (see checkpoint.hh). Completed points
     * are appended to it as they finish; points already present (from
     * a previous interrupted run loaded with --resume) are served
     * from it, marked resumed, instead of re-evaluated. Null disables
     * checkpointing.
     */
    SweepCheckpoint *checkpoint = nullptr;
    /**
     * Test hook for fault-isolation coverage: called at the start of
     * every point evaluation (after the checkpoint shortcut, which a
     * fault could never reach); an exception it throws behaves
     * exactly like a fault inside the evaluation (isolated, retried
     * once). Null in production.
     */
    std::function<void(const arch::SocConfig &)> injectFault;
};

/**
 * Evaluate the workload on every configuration under the given
 * model. Points are returned in configuration order; unschedulable
 * configurations come back with ok == false and a diagnostic note,
 * and a point that throws twice comes back errored. `on_point` (may
 * be empty) sees every completed point; `trace_id` (0 = none) is the
 * owning request's trace context, which the sweep workers re-enter
 * so their spans and points carry it.
 */
std::vector<DsePoint> exploreSpace(
    const std::vector<arch::SocConfig> &configs,
    const workload::Workload &workload,
    const arch::Constraints &constraints, ModelKind kind,
    const DseOptions &options, const PointSink &on_point = {},
    uint64_t trace_id = 0);

/**
 * Evaluate one configuration: exploreSpace's per-point step without
 * cross-config reuse, fault isolation included.
 */
DsePoint evaluatePoint(const arch::SocConfig &config,
                       const workload::Workload &workload,
                       const arch::Constraints &constraints,
                       ModelKind kind, const DseOptions &options);

/**
 * Group configuration indices into similarity chains: same CPU core
 * count and same DSA allocation (count, PE size, targets,
 * advantage), ordered by ascending GPU SM count within a chain.
 * Neighbors differ only in GPU capacity, so their optimal schedules
 * transfer well as warm starts. The in-process sweep warm-starts
 * along these chains; the distributed coordinator hands them out
 * whole as work units, so the chains survive the split.
 */
std::vector<std::vector<size_t>> similarityChains(
    const std::vector<arch::SocConfig> &configs);

} // namespace dse
} // namespace hilp

#endif // HILP_DSE_EXPLORE_HH
