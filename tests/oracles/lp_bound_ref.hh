/**
 * @file
 * The direct LP relaxation: the reference cp::computeLowerBounds'
 * LP bound is held against.
 *
 * It builds the relaxation in its textbook form - every mode a
 * column, every start bound and the makespan from zero, a completion
 * row per task - so the simplex starts with an artificial in every
 * task's convexity row. cp/bounds.cc builds the same relaxation
 * around a feasible point instead; both must give the same rounded
 * bound on every model. Test code only: it lives in the tests'
 * oracle library, not in the solver library.
 */

#ifndef HILP_TESTS_ORACLES_LP_BOUND_REF_HH
#define HILP_TESTS_ORACLES_LP_BOUND_REF_HH

#include "cp/model.hh"

namespace hilp {
namespace cp {

/**
 * ceil(LP optimum - 1e-6) of the direct relaxation, or 0 when the LP
 * is not solved to optimality (a task with no usable mode makes it
 * infeasible).
 */
Time referenceLpRelaxationBound(const Model &model);

} // namespace cp
} // namespace hilp

#endif // HILP_TESTS_ORACLES_LP_BOUND_REF_HH
