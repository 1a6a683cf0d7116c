/**
 * @file
 * The HILP evaluation engine: adaptive time-step selection around
 * the CP solver (Section III-D).
 *
 * The engine solves the discretized problem at an initial time-step
 * size; while the resulting makespan uses fewer steps than the
 * refinement threshold it increases resolution by the refinement
 * factor and re-solves, keeping the horizon constant. If no schedule
 * fits at the initial resolution the engine coarsens instead. The
 * final result reports the makespan, the certified optimality bound
 * and gap, the schedule, and the average WLP.
 */

#ifndef HILP_HILP_ENGINE_HH
#define HILP_HILP_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cp/solver.hh"
#include "discretize.hh"
#include "problem.hh"
#include "schedule.hh"
#include "support/option_field.hh"

namespace hilp {

/** Engine configuration. */
struct EngineOptions
{
    double initialStepS = 10.0; //!< Starting time-step size.
    cp::Time horizonSteps = 200; //!< Fixed horizon, in steps.
    /** Refine resolution while the makespan is below this. */
    cp::Time refineThreshold = 40;
    double refineFactor = 5.0;  //!< Resolution multiplier per round.
    int maxRefinements = 6;
    int maxCoarsenings = 6;     //!< When nothing fits initially.
    cp::SolverOptions solver;   //!< Underlying solver budget/gap.
    /**
     * Re-solve attempts with multiplied budgets when the gap misses
     * the solver's target (Section III-D: "we rerun the experiments
     * that do not achieve this bound with more resources").
     */
    int escalations = 0;
    /** Budget multiplier applied per escalation. */
    double escalationFactor = 4.0;
    /**
     * Wall-clock ceiling for one *whole* evaluation, in seconds: all
     * resolution refinements, coarsenings, and escalations share one
     * monotonic deadline threaded through SolverOptions into the
     * search. On expiry the engine degrades gracefully instead of
     * failing: it returns the best incumbent found so far with its
     * certified gap, and sets EvalResult::degraded when that gap
     * misses the target or planned refinements were cut. A point
     * with no schedule yet keeps coarsening; past the deadline each
     * solve costs only its bounds, its greedy and one node.
     * 0 (the default) means no ceiling.
     */
    double pointTimeoutS = 0.0;

    /**
     * The paper's validation-mode parameters (Section III-D): 2 s
     * steps, 1000-step horizon, refine below 200 steps.
     */
    static EngineOptions validationMode();

    /**
     * The paper's exploration-mode parameters: 10 s steps, 200-step
     * horizon, refine below 40 steps.
     */
    static EngineOptions explorationMode();
};

/**
 * The wire fields of EngineOptions and their valid ranges (see
 * hilp/options.hh; the solver block has cp::kSolverOptionFields).
 * The ranges keep the adaptive loop inside its types:
 * a refinement scales step counts below `refine_threshold` by at
 * most `refine_factor` (under 2^31), and escalation scales the
 * solver's `max_nodes` and `lns_iterations` by at most 8^4.
 */
inline constexpr OptionField<EngineOptions> kEngineOptionFields[] = {
    {"initial_step_s", &EngineOptions::initialStepS, 1e-3, 1e6},
    {"horizon_steps", &EngineOptions::horizonSteps, 1, 1 << 20},
    {"refine_threshold", &EngineOptions::refineThreshold, 0, 1 << 20},
    {"refine_factor", &EngineOptions::refineFactor, 1.01, 1e3},
    {"max_refinements", &EngineOptions::maxRefinements, 0, 64},
    {"max_coarsenings", &EngineOptions::maxCoarsenings, 0, 64},
    {"escalations", &EngineOptions::escalations, 0, 4},
    {"escalation_factor", &EngineOptions::escalationFactor, 1.0, 8.0},
    {"point_timeout_s", &EngineOptions::pointTimeoutS, 0.0, 1e6},
};

/** The outcome of evaluating a workload on an SoC. */
struct EvalResult
{
    bool ok = false;             //!< A schedule was produced.
    cp::SolveStatus status = cp::SolveStatus::NoSolution;
    double stepS = 0.0;          //!< Final time-step size.
    double makespanS = 0.0;      //!< Schedule length, seconds.
    double lowerBoundS = 0.0;    //!< Certified bound, seconds.
    double gap = 0.0;            //!< (UB - LB) / UB at the final step.
    Schedule schedule;           //!< The full schedule.
    double averageWlp = 0.0;     //!< Section II WLP metric.
    int refinements = 0;         //!< Resolution changes performed.
    cp::SolveStats stats;        //!< Stats of the final solve.

    // Effort telemetry across the whole evaluation (all resolutions
    // and escalation attempts), for the DSE sweep reports.
    int solves = 0;              //!< CP solves performed.
    int64_t totalNodes = 0;      //!< B&B nodes across all solves.
    int64_t totalBacktracks = 0;
    double totalSeconds = 0.0;   //!< Wall-clock across all solves.
    bool warmStarted = false;    //!< A transferred hint seeded a solve.
    bool cacheHit = false;       //!< Result came from a SolveMemo.
    /** Refinement stopped early: the sweep proved the point dominated. */
    bool prunedEarly = false;
    /**
     * The evaluation's deadline (EngineOptions::pointTimeoutS)
     * expired before the engine finished its planned work. The
     * result is still sound - the makespan carries the certified gap
     * of its final solve - but the gap may be wider than an
     * unconstrained evaluation would have achieved.
     */
    bool degraded = false;
    /**
     * Per-propagator telemetry merged (by name) across every solve
     * of the evaluation; zeroed on cache hits like the rest of the
     * effort counters.
     */
    std::vector<cp::PropagatorStats> propagators;

    /** True when the gap meets the paper's 10% near-optimal bar. */
    bool nearOptimal() const { return ok && gap <= 0.10 + 1e-12; }
};

/**
 * Thread-safe memo of completed evaluations, keyed by the lowered
 * instance (ProblemSpec::fingerprint()) plus a salt naming the engine
 * options it was solved under (engineOptionsDigest, see
 * hilp/options.hh). The design-space sweep (dse::exploreSpace) looks
 * each point up once and inserts what it evaluates; evaluate()
 * itself caches nothing. Identical instances
 * then solve once per memo lifetime, and one memo can serve callers
 * with differing options without ever returning a result computed
 * under other options.
 *
 * The memo doubles as the warm-start store: hint() hands out the
 * schedule of any retained successful entry for an instance under
 * *any* salt. A hint only seeds a solve, which still certifies its
 * own bound, so crossing options there is sound.
 *
 * The memo also indexes its instances by their lowering inputs
 * (hilp::loweringDigest), so a sweep point whose instance it holds is
 * served without being lowered. The entries stay keyed by the
 * fingerprint: configs that lower to one instance share its result,
 * hints cross salts per instance, and checkpoint records carry the
 * fingerprint as their key. An index record lives only as long as
 * its instance has an entry, and is never persisted.
 *
 * The memo is optionally bounded: with a positive byte cap, entries
 * are byte-accounted (resultFootprintBytes, which covers the
 * by-instance index too, and kLoweringRecordBytes per index record)
 * and evicted in least-recently-used order - lookups and hints
 * refresh recency - so a long-running daemon's cache cannot grow
 * without limit. Eviction only ever costs a recompute, never
 * correctness: an evicted entry simply misses, and stops serving as a
 * hint, until it is solved again.
 */
class SolveMemo
{
  public:
    /** A memo capped at max_bytes; 0 (the default) is unbounded. */
    explicit SolveMemo(size_t max_bytes = 0);

    /**
     * Look up a cached result. On a hit, *out is the cached result
     * with cacheHit set and its effort counters zeroed (the work was
     * paid for by the original solve), and the entry becomes the
     * most recently used.
     */
    bool lookup(uint64_t fingerprint, uint64_t salt, EvalResult *out);

    /**
     * The instance that lowering inputs with this digest produce (see
     * hilp::loweringDigest), while the memo holds an entry for it.
     * Counted neither as a hit nor as a miss.
     */
    std::optional<uint64_t> loweredInstance(uint64_t digest) const;

    /**
     * Record that lowering inputs with this digest produce the
     * instance `fingerprint`. Nothing is recorded for an instance
     * without an entry, and the record leaves with the instance's
     * last entry (eviction, setMaxBytes, clear). Each record counts
     * kLoweringRecordBytes in bytes().
     */
    void recordLowering(uint64_t digest, uint64_t fingerprint);

    /**
     * The bytes one index record is accounted as: its hash-map node
     * and bucket plus its slot in the instance's list of digests.
     */
    static constexpr size_t kLoweringRecordBytes = 64;

    /**
     * Copy out the schedule of a retained successful entry for the
     * instance under any salt, as a warm-start hint, and refresh its
     * recency. Hint lookups are counted by hintHits()/hintMisses(),
     * never by hits()/misses().
     */
    bool hint(uint64_t fingerprint, Schedule *out);

    /**
     * Insert a result. An entry is replaced when the new result
     * is strictly better: ok beats !ok, a smaller certified gap beats
     * a larger one, and a non-degraded result beats a degraded one of
     * equal gap - so an early timed-out or high-gap result cannot
     * shadow a later solve of the same spec that proves (near-)
     * optimality. Results of equal rank fall through to a total
     * order on content (makespan, then bound, then step, then a
     * structural digest), so the surviving entry is independent of
     * the thread interleaving that inserted them - a parallel sweep
     * memoizes reproducibly. With a byte cap, least-recently-used
     * entries are evicted until the memo fits again (a result larger
     * than the whole cap is not retained at all).
     */
    void insert(uint64_t fingerprint, uint64_t salt,
                const EvalResult &result);

    /**
     * Change the byte cap (0 = unbounded), evicting immediately if
     * the current contents exceed the new cap.
     */
    void setMaxBytes(size_t max_bytes);

    size_t maxBytes() const;
    /** Current byte footprint of all retained entries. */
    size_t bytes() const;
    /** Number of retained entries. */
    size_t entries() const;
    /** Entries evicted by the byte cap since construction. */
    int64_t evictions() const;
    /** Drop every entry (the accounting survives). */
    void clear();

    int64_t hits() const { return hits_.load(); }
    int64_t misses() const { return misses_.load(); }
    int64_t hintHits() const { return hintHits_.load(); }
    int64_t hintMisses() const { return hintMisses_.load(); }

    /**
     * The bytes one cached result is accounted as: the struct plus
     * its owned heap (schedule phases and their strings, device
     * names, propagator stats) plus per-entry bookkeeping (its slot
     * in the by-instance index and the LRU order). An estimate -
     * container slack is approximated - but a faithful one: it
     * scales with the schedule, which dominates.
     */
    static size_t resultFootprintBytes(const EvalResult &result);

  private:
    /** (fingerprint, salt): one entry's identity, in LRU order. */
    using Slot = std::pair<uint64_t, uint64_t>;

    struct Entry
    {
        uint64_t salt = 0;
        EvalResult result;
        size_t bytes = 0;
        std::list<Slot>::iterator lruIt;
    };

    /** One instance: its entries and the digests that name it. */
    struct Instance
    {
        std::vector<Entry> entries; //!< One per salt.
        /** Lowering digests recorded for it (keys of lowered_). */
        std::vector<uint64_t> digests;
    };

    /** The entry for (fingerprint, salt), or null. Lock held. */
    Entry *findLocked(uint64_t fingerprint, uint64_t salt);
    /** Evict LRU entries until bytes_ <= maxBytes_. Lock held. */
    void evictToCapLocked();
    void publishBytesLocked();

    mutable std::mutex mutex_;
    /** Instances by fingerprint. */
    std::unordered_map<uint64_t, Instance> instances_;
    /** Lowering digest -> fingerprint of a retained instance. */
    std::unordered_map<uint64_t, uint64_t> lowered_;
    /** Every entry, most recently used first. */
    std::list<Slot> lru_;
    size_t maxBytes_ = 0;
    size_t bytes_ = 0;
    int64_t evictions_ = 0;
    mutable std::atomic<int64_t> hits_{0};
    mutable std::atomic<int64_t> misses_{0};
    mutable std::atomic<int64_t> hintHits_{0};
    mutable std::atomic<int64_t> hintMisses_{0};
};

/**
 * Cross-instance reuse context for evaluate(): everything the DSE
 * sweep shares between neighboring configurations.
 */
struct EvalReuse
{
    /**
     * A schedule from a similar problem (e.g. the neighboring SoC
     * config), re-timed onto this problem via transferSchedule() and
     * fed to the solver as a warm start. May be null.
     */
    const Schedule *hint = nullptr;
    /**
     * Dominance oracle: given a resolution-invariant lower bound on
     * this instance's makespan (seconds, see continuousLowerBoundS()),
     * return true when a completed point provably dominates any
     * result this instance can achieve at any resolution. The sweep
     * checks the completed points of this config's own similarity
     * chain, so the answer does not depend on thread timing. The
     * engine then skips resolution refinement and returns the current
     * (still gap-certified) result. May be null.
     */
    std::function<bool(double lowerBoundS)> dominated;
    /**
     * The spec's fingerprint, when the caller already holds it (the
     * sweep computes it once per point for its memo and checkpoint
     * keys). It must equal spec.fingerprint(): it salts the heuristic
     * seeds, which a wrong value would make another instance's.
     * Empty, evaluate() computes it.
     */
    std::optional<uint64_t> fingerprint;
};

/**
 * Evaluate the problem with the adaptive engine. The spec must
 * validate; a spec that cannot be scheduled at any attempted
 * resolution yields ok == false. Computes the spec's fingerprint
 * itself.
 */
EvalResult evaluate(const ProblemSpec &spec,
                    const EngineOptions &options);

/**
 * As above, with cross-instance reuse: a warm-start hint schedule
 * and a dominance oracle over the caller's completed points (either
 * of which may be null), plus the spec's fingerprint when the caller
 * has it (EvalReuse::fingerprint), so a sweep hashes each instance
 * once. Reuse only affects effort, not correctness: the
 * returned makespan always carries its certified bound and gap.
 */
EvalResult evaluate(const ProblemSpec &spec,
                    const EngineOptions &options,
                    const EvalReuse &reuse);

/**
 * A lower bound on the continuous-time makespan of the spec: the
 * longest dependency path in any application with every phase on its
 * fastest option, ignoring all resource contention. Unlike a solve's
 * certified bound this holds at *every* discretization (durations
 * only round up), so it is the sound input to EvalReuse::dominated.
 */
double continuousLowerBoundS(const ProblemSpec &spec);

/**
 * Re-time a schedule produced for a *similar* problem onto this
 * problem: each scheduled phase keeps its unit choice (matched by
 * option label, falling back to the fastest mode) and phases are
 * re-placed by the serial SGS (cp::ListScheduler) in hint start
 * order at their earliest feasible starts; a phase the hint starts
 * before one of its dependencies waits until they are placed.
 * Returns true and fills *out with a schedule that satisfies every
 * model constraint, or false when the hint does not transfer (e.g.
 * different phase structure or no feasible placement).
 */
bool transferSchedule(const ProblemSpec &spec,
                      const DiscretizedProblem &problem,
                      const Schedule &hint, cp::ScheduleVec *out);

/**
 * Lift a solver schedule back to spec terms. Exposed for tests and
 * for callers that drive the solver directly.
 */
Schedule liftSchedule(const ProblemSpec &spec,
                      const DiscretizedProblem &problem,
                      const cp::ScheduleVec &solution);

} // namespace hilp

#endif // HILP_HILP_ENGINE_HH
