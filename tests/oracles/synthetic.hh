/**
 * @file
 * Deterministic synthetic workload generation.
 *
 * The paper evaluates on Rodinia-derived workloads; the synthetic
 * generator provides structurally similar (multi-phase, mixed
 * sequential/compute) workloads with controllable shape for property
 * tests and fuzzing of the end-to-end pipeline. Test code only, so it
 * lives in the tests' oracle library rather than in hilp_workload.
 */

#ifndef HILP_TESTS_ORACLES_SYNTHETIC_HH
#define HILP_TESTS_ORACLES_SYNTHETIC_HH

#include <cstdint>

#include "workload/workload.hh"

namespace hilp {
namespace workload {

/** Shape parameters for a synthetic workload. */
struct SyntheticOptions
{
    int numApps = 5;
    int minComputePhases = 1; //!< Compute phases per app (min).
    int maxComputePhases = 2; //!< Compute phases per app (max).
    double minSetupS = 0.5;   //!< Sequential phase duration range.
    double maxSetupS = 60.0;
    double minComputeCpuS = 20.0; //!< Single-core compute time range.
    double maxComputeCpuS = 500.0;
    double minGpuSpeedup98 = 5.0; //!< CPU/GPU time ratio range at 98
    double maxGpuSpeedup98 = 200.0; //!< SMs.
    double minBw98 = 1.0;     //!< Full-GPU bandwidth range, GB/s.
    double maxBw98 = 250.0;
    double dsaTargetFraction = 0.5; //!< Fraction of apps that get a
                                    //!< DSA-targetable compute phase.
    uint64_t seed = 42;
};

/**
 * Generate a workload: each app is setup -> compute+ -> teardown with
 * log-uniform times and Table-II-like power laws. Equal options and
 * seed produce identical workloads.
 */
Workload makeSyntheticWorkload(const SyntheticOptions &options);

} // namespace workload
} // namespace hilp

#endif // HILP_TESTS_ORACLES_SYNTHETIC_HH
