/**
 * @file
 * The accelerator and CPU scaling model (Section IV).
 *
 * Scales the Table II profile points to arbitrary SM/PE counts via
 * the fitted power laws, to arbitrary GPU clocks via the per-phase
 * frequency sensitivity, and to multi-core CPU execution via the
 * documented substitution (DESIGN.md): the compute kernel scales on
 * CPU cores with the same exponent as on SMs.
 *
 * Bandwidth across mappings conserves the phase's memory traffic:
 * the bytes moved are frequency-independent, so bandwidth demand
 * scales inversely with execution time when only the clock changes.
 */

#ifndef HILP_WORKLOAD_SCALING_HH
#define HILP_WORKLOAD_SCALING_HH

#include "workload.hh"

namespace hilp {
namespace workload {

/**
 * Execution time of a compute phase on an accelerator with the given
 * number of compute units (GPU SMs or DSA PEs) at the given clock:
 * acceleratorBaseTimeS(phase, units) * clockFactor(phase, clock_mhz).
 * Requires a GPU-compatible compute phase and units >= 1.
 */
double acceleratorTimeS(const PhaseProfile &phase, int units,
                        int clock_mhz);

/**
 * Bandwidth demand of a compute phase on an accelerator with the
 * given unit count and clock, GB/s:
 * acceleratorBaseBwGBs(phase, units) / clockFactor(phase, clock_mhz).
 */
double acceleratorBwGBs(const PhaseProfile &phase, int units,
                        int clock_mhz);

/**
 * The unit-count factor of acceleratorTimeS: the time on `units`
 * SMs or PEs at the base clock. Lowering evaluates it once per
 * (phase, units) and the clock factor once per (phase, clock); their
 * product is bit-identical to acceleratorTimeS.
 */
double acceleratorBaseTimeS(const PhaseProfile &phase, int units);

/** The unit-count factor of acceleratorBwGBs (see above), GB/s. */
double acceleratorBaseBwGBs(const PhaseProfile &phase, int units);

/**
 * The clock-derating factor (f_base / f)^gamma of a phase's
 * execution time. Requires clock_mhz > 0.
 */
double clockFactor(const PhaseProfile &phase, int clock_mhz);

/**
 * Execution time of a phase on `cores` CPU cores. Sequential phases
 * ignore the core count; compute phases scale with the benchmark's
 * time-law exponent.
 */
double cpuTimeS(const PhaseProfile &phase, int cores);

/**
 * Bandwidth demand on the CPU, GB/s. Sequential phases use a nominal
 * 1 GB/s; compute phases conserve the traffic measured on the GPU:
 * cpuBwGBs(phase, cpuTrafficGB(phase), cpuTimeS(phase, cores)).
 */
double cpuBwGBs(const PhaseProfile &phase, int cores);

/**
 * The memory traffic a GPU-compatible compute phase moves on the
 * full GPU, GB, which its CPU executions conserve; 0 for any other
 * phase. Lowering evaluates it once per phase.
 */
double cpuTrafficGB(const PhaseProfile &phase);

/**
 * cpuBwGBs for a phase whose traffic (cpuTrafficGB) and CPU time at
 * the core count (cpuTimeS) are already known.
 */
double cpuBwGBs(const PhaseProfile &phase, double traffic_gb,
                double time_s);

/**
 * The frequency-sensitivity heuristic of DESIGN.md:
 * gamma = clamp(1 - bw98 / 250, 0.2, 1.0). Compute-bound kernels
 * (low bandwidth) scale almost linearly with clock; bandwidth-bound
 * ones barely scale.
 */
double frequencyGamma(double gpu_bw98);

} // namespace workload
} // namespace hilp

#endif // HILP_WORKLOAD_SCALING_HH
