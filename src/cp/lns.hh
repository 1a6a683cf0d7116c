/**
 * @file
 * Large-neighborhood search around an incumbent schedule.
 *
 * Classic LNS loop (Shaw-style destroy/repair): each iteration frees
 * a neighborhood of the incumbent - a time window around a random
 * task, one device group's tasks, or a random subset - and repairs
 * it with the serial-SGS list scheduler, keeping the fixed tasks
 * pinned to their incumbent modes while the freed tasks re-choose
 * modes and get permuted within the incumbent's priority order. The
 * repair is a full feasible reconstruction, so every accepted
 * schedule is valid; acceptance is monotone (never worse than the
 * incumbent), which makes the whole pass safe to bolt onto any
 * degraded path. A small warm-started branch-and-bound polish
 * ("repair = list-schedule + bounded B&B") runs mid-loop and at the
 * end to escape SGS-space local minima; warm-starting guarantees it
 * too can only improve.
 *
 * The solver itself tightens its greedy incumbent by priority hill
 * climbing (list_scheduler.hh). LNS runs in the engine's deadline
 * fallback (EngineOptions::fallbackLnsIterations): a point whose
 * deadline expired before any solve produced a schedule polishes its
 * greedy schedule here, within a strict wall-clock cap.
 */

#ifndef HILP_CP_LNS_HH
#define HILP_CP_LNS_HH

#include <chrono>
#include <cstdint>

#include "model.hh"

namespace hilp {
namespace cp {

/** Budgets and knobs for one lnsImprove call. */
struct LnsOptions
{
    /** Destroy/repair iterations. */
    int iterations = 256;
    /** Wall-clock budget for the whole pass, in seconds. */
    double maxSeconds = 1.0;
    /** Absolute cut-off shared with the enclosing evaluation. */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /** Seed for the destroy-operator randomness. */
    uint64_t seed = 1;
    /**
     * Node budget for each bounded branch-and-bound polish of the
     * incumbent (one mid-loop, one at the end). 0 disables polishing
     * and leaves pure destroy/repair.
     */
    int64_t polishNodes = 2000;
    /**
     * Stop as soon as (makespan - lowerBound) / makespan <=
     * targetGap (with lowerBound > 0); 0 keeps improving until the
     * budgets run out.
     */
    double targetGap = 0.0;
    /** Certified lower bound used for the targetGap stop. */
    Time lowerBound = 0;
};

/** Outcome of an LNS pass. */
struct LnsResult
{
    /** Best schedule found; never worse than the starting incumbent. */
    ScheduleVec schedule;
    Time makespan = 0;
    /** Destroy/repair iterations actually run. */
    int iterations = 0;
    /** Iterations that strictly improved the incumbent. */
    int improvements = 0;
    /** Bounded B&B polish calls that ran. */
    int polishes = 0;
    /** Nodes spent across the polish calls. */
    int64_t polishNodes = 0;
    /**
     * Order-sensitive digest of the destroy decisions (operator and
     * freed task set, per iteration). Two passes replayed the same
     * destroy trajectory iff their digests are equal - the handle the
     * retry-seeding regression test grips.
     */
    uint64_t trajectoryDigest = 0;
};

/**
 * Improve `incumbent` (which must be feasible for `model`) by
 * destroy/repair LNS. The result's schedule is always feasible and
 * its makespan is <= the incumbent's - acceptance is monotone and
 * the polish is warm-started - so callers can substitute the result
 * unconditionally.
 */
LnsResult lnsImprove(const Model &model, const ScheduleVec &incumbent,
                     const LnsOptions &options);

} // namespace cp
} // namespace hilp

#endif // HILP_CP_LNS_HH
