/**
 * @file
 * The from-scratch list scheduler: the reference the incremental one
 * in cp/list_scheduler is held against.
 *
 * Every run builds a fresh Profile and places every task, and the
 * hill climber and the multi-start rules re-run the whole schedule
 * for each candidate. cp::bestGreedy and cp::improveGreedy must
 * return exactly what these do - the same feasibility, makespan and
 * (mode, start) of every task - for any model, budget and seed. Test
 * code only: it lives in the tests' oracle library, not in the
 * solver library.
 */

#ifndef HILP_TESTS_ORACLES_LIST_SCHEDULER_REF_HH
#define HILP_TESTS_ORACLES_LIST_SCHEDULER_REF_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cp/list_scheduler.hh"

namespace hilp {
namespace cp {

/** One serial SGS pass from scratch (see cp::listSchedule). */
ListResult referenceListSchedule(const Model &model,
                                 const std::vector<int> &priority,
                                 const std::vector<int> &forced_mode);

/** The multi-start rules over from-scratch passes (cp::bestGreedy). */
ListResult referenceBestGreedy(const Model &model, int random_restarts,
                               uint64_t seed);

/**
 * The priority hill climber over from-scratch passes
 * (cp::improveGreedy, without a deadline).
 */
ListResult referenceImproveGreedy(const Model &model,
                                  const ListResult &start,
                                  int iterations, uint64_t seed);

/**
 * The first way `got` differs from `want` (feasibility, makespan, or
 * a task's mode or start), or "" when they are the same result.
 */
std::string firstDifference(const ListResult &got,
                            const ListResult &want);

} // namespace cp
} // namespace hilp

#endif // HILP_TESTS_ORACLES_LIST_SCHEDULER_REF_HH
