/**
 * @file
 * An exhaustive reference solver.
 *
 * Enumerates every (mode, start) assignment of a small model and
 * validates complete candidates with checkSchedule - a code path
 * entirely independent of the branch-and-bound search, usable as a
 * ground-truth oracle when validating models, custom constraints, or
 * the main solver itself. Cost is O((modes * horizon)^tasks); keep
 * instances tiny (the estimator below guards against blowups). Test
 * code only: it lives in the tests' oracle library, not in the
 * solver library.
 */

#ifndef HILP_TESTS_ORACLES_EXHAUSTIVE_HH
#define HILP_TESTS_ORACLES_EXHAUSTIVE_HH

#include <cstdint>

#include "cp/model.hh"

namespace hilp {
namespace cp {

/** Outcome of exhaustive enumeration. */
struct ExhaustiveResult
{
    /** True when the full space fit within the candidate budget. */
    bool complete = false;
    /** True when a feasible schedule exists (valid when complete). */
    bool feasible = false;
    Time optimum = -1;       //!< Optimal makespan (-1 when none).
    ScheduleVec best;        //!< One optimal schedule.
    uint64_t candidates = 0; //!< Assignments enumerated.
};

/**
 * Number of candidate assignments enumeration would visit; saturates
 * at UINT64_MAX on overflow.
 */
uint64_t exhaustiveSpaceSize(const Model &model);

/**
 * Enumerate the model's full assignment space, up to max_candidates
 * (the search aborts with complete == false beyond it). Prunes
 * nothing except per-task horizon fit, so the result is a true
 * oracle for any constraint checkSchedule enforces.
 */
ExhaustiveResult solveExhaustively(
    const Model &model, uint64_t max_candidates = 50'000'000);

} // namespace cp
} // namespace hilp

#endif // HILP_TESTS_ORACLES_EXHAUSTIVE_HH
