#include "scaling.hh"

#include <algorithm>
#include <cmath>

#include "arch/dvfs.hh"
#include "support/logging.hh"

namespace hilp {
namespace workload {

double
clockFactor(const PhaseProfile &phase, int clock_mhz)
{
    hilp_assert(clock_mhz > 0);
    double ratio = static_cast<double>(arch::kBaseClockMhz) /
                   static_cast<double>(clock_mhz);
    return std::pow(ratio, phase.freqGamma);
}

double
acceleratorBaseTimeS(const PhaseProfile &phase, int units)
{
    hilp_assert(phase.kind == PhaseKind::Compute);
    hilp_assert(phase.gpuCompatible);
    hilp_assert(units >= 1);
    double sm_scale = phase.timeLaw.scaleFrom(kProfileSms, units);
    return phase.gpuTime98 * sm_scale;
}

double
acceleratorBaseBwGBs(const PhaseProfile &phase, int units)
{
    hilp_assert(phase.kind == PhaseKind::Compute);
    hilp_assert(phase.gpuCompatible);
    hilp_assert(units >= 1);
    double sm_scale = phase.bwLaw.scaleFrom(kBwBaseSms, units);
    return phase.gpuBwBase * sm_scale;
}

double
acceleratorTimeS(const PhaseProfile &phase, int units, int clock_mhz)
{
    return acceleratorBaseTimeS(phase, units) *
           clockFactor(phase, clock_mhz);
}

double
acceleratorBwGBs(const PhaseProfile &phase, int units, int clock_mhz)
{
    // Same bytes, longer time at lower clocks: demand divides by the
    // clock derating factor.
    return acceleratorBaseBwGBs(phase, units) /
           clockFactor(phase, clock_mhz);
}

double
cpuTimeS(const PhaseProfile &phase, int cores)
{
    hilp_assert(cores >= 1);
    if (phase.kind == PhaseKind::Sequential)
        return phase.cpuTime1;
    // Substitution (DESIGN.md): the kernel's CPU-core scaling uses
    // the same exponent as its SM scaling.
    return phase.cpuTime1 * std::pow(static_cast<double>(cores),
                                     phase.timeLaw.b);
}

double
cpuBwGBs(const PhaseProfile &phase, int cores)
{
    if (phase.kind == PhaseKind::Sequential || !phase.gpuCompatible)
        return 1.0;
    return cpuBwGBs(phase, cpuTrafficGB(phase), cpuTimeS(phase, cores));
}

double
cpuTrafficGB(const PhaseProfile &phase)
{
    if (phase.kind == PhaseKind::Sequential || !phase.gpuCompatible)
        return 0.0;
    // The traffic observed on the full GPU.
    return phase.gpuBwBase *
           phase.bwLaw.scaleFrom(kBwBaseSms, kProfileSms) *
           phase.gpuTime98;
}

double
cpuBwGBs(const PhaseProfile &phase, double traffic_gb, double time_s)
{
    if (phase.kind == PhaseKind::Sequential || !phase.gpuCompatible)
        return 1.0;
    if (time_s <= 0.0)
        return 1.0;
    return std::max(1.0, traffic_gb / time_s);
}

double
frequencyGamma(double gpu_bw98)
{
    return std::clamp(1.0 - gpu_bw98 / 250.0, 0.2, 1.0);
}

} // namespace workload
} // namespace hilp
