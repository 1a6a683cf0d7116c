/**
 * @file
 * Lowering (workload, SoC, constraints) into a ProblemSpec.
 *
 * This is where the paper's input matrices are populated: for every
 * phase, the builder emits one UnitOption per compatible core
 * cluster and operating point, using the Table II scaling model for
 * performance/bandwidth and the Table III DVFS model for power. DSAs
 * are matched to compute phases through their target identifiers.
 *
 * Two model-size reductions keep the solver fast without changing
 * the optimum:
 *  - Options whose power or bandwidth exceeds the budget outright
 *    can never be scheduled and are dropped.
 *  - When a budget provably can never bind (the sum of worst-case
 *    concurrent demands fits), that dimension is ignored and
 *    dominated operating points (slower, same or higher demand) are
 *    pruned - under no power constraint only the highest clock
 *    survives, which is exactly the paper's DVFS semantics.
 */

#ifndef HILP_HILP_BUILDER_HH
#define HILP_HILP_BUILDER_HH

#include <cstdint>
#include <vector>

#include "arch/soc.hh"
#include "problem.hh"
#include "workload/workload.hh"

namespace hilp {

/** Knobs for problem construction. */
struct BuildOptions
{
    /**
     * GPU/DSA clocks to expose as operating points; empty means all
     * Table III points.
     */
    std::vector<int> clocksMhz;
    /** Apply the dominance pruning described above. */
    bool pruneDominated = true;
    /** Nominal bandwidth of sequential (setup/teardown) phases. */
    double sequentialBwGBs = 1.0;
    /**
     * CPU core counts offered to compute phases (capped at the SoC's
     * core count); empty means powers of two up to the core count.
     */
    std::vector<int> cpuCoreOptions;
};

/**
 * Build the scheduling problem for running the workload on the SoC
 * under the constraints.
 */
ProblemSpec buildProblem(const workload::Workload &workload,
                         const arch::SocConfig &soc,
                         const arch::Constraints &constraints,
                         const BuildOptions &options = {});

/**
 * A digest of every input buildProblem reads except the SoC: each
 * application's name, dependency edges and the phase-profile fields
 * the scaling model reads; the power budget, memory bandwidth and
 * cache levels; and the options. Doubles are hashed by bit pattern,
 * so inputs that could lower differently never share a digest (up to
 * 64-bit collisions). A sweep computes this once and adds each
 * point's SoC with the overload below.
 */
uint64_t loweringDigest(const workload::Workload &workload,
                        const arch::Constraints &constraints,
                        const BuildOptions &options = {});

/**
 * The digest of all of buildProblem's inputs: `inputs` (the digest
 * above) plus the SoC's cores, SMs, DSAs and DSA advantage. Equal
 * digests lower to instances with equal fingerprints, so a solve
 * memo can find a point's instance without lowering it
 * (SolveMemo::loweredInstance).
 */
uint64_t loweringDigest(uint64_t inputs, const arch::SocConfig &soc);

} // namespace hilp

#endif // HILP_HILP_BUILDER_HH
