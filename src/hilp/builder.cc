#include "builder.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "arch/dvfs.hh"
#include "support/logging.hh"
#include "support/str.hh"
#include "workload/scaling.hh"

namespace hilp {

namespace {

using workload::PhaseKind;
using workload::PhaseProfile;

/** The clock list to expose (defaults to all Table III points). */
std::vector<int>
clockList(const BuildOptions &options)
{
    if (!options.clocksMhz.empty())
        return options.clocksMhz;
    std::vector<int> clocks;
    for (const auto &point : arch::gpuOperatingPoints())
        clocks.push_back(point.clockMhz);
    return clocks;
}

/** CPU core counts offered to compute phases. */
std::vector<int>
coreList(const BuildOptions &options, int cpu_cores)
{
    std::vector<int> cores;
    if (!options.cpuCoreOptions.empty()) {
        for (int c : options.cpuCoreOptions)
            if (c >= 1 && c <= cpu_cores)
                cores.push_back(c);
    } else {
        for (int c = 1; c < cpu_cores; c *= 2)
            cores.push_back(c);
        cores.push_back(cpu_cores);
    }
    if (cores.empty())
        cores.push_back(cpu_cores);
    return cores;
}

/**
 * True when option a dominates option b on the same device: at least
 * as fast and at most as demanding in every dimension that can still
 * bind.
 */
bool
dominates(const UnitOption &a, const UnitOption &b, bool power_binds,
          bool bw_binds)
{
    if (a.device != b.device)
        return false;
    if (a.timeS > b.timeS)
        return false;
    if (a.cpuCores > b.cpuCores)
        return false;
    if (power_binds && a.powerW > b.powerW)
        return false;
    if (bw_binds && a.bwGBs > b.bwGBs)
        return false;
    return true;
}

/** Remove options dominated by another option of the same phase. */
void
pruneDominated(PhaseSpec &phase, bool power_binds, bool bw_binds)
{
    std::vector<UnitOption> kept;
    for (size_t i = 0; i < phase.options.size(); ++i) {
        bool dominated = false;
        for (size_t j = 0; j < phase.options.size() && !dominated;
             ++j) {
            if (i == j)
                continue;
            if (!dominates(phase.options[j], phase.options[i],
                           power_binds, bw_binds))
                continue;
            // Symmetric (equal) options: keep only the first.
            if (dominates(phase.options[i], phase.options[j],
                          power_binds, bw_binds) && i < j)
                continue;
            dominated = true;
        }
        if (!dominated)
            kept.push_back(phase.options[i]);
    }
    // A phase whose options were all filtered out by the budgets is
    // left empty here; ProblemSpec::validate reports it to the user.
    phase.options = std::move(kept);
}

} // anonymous namespace

ProblemSpec
buildProblem(const workload::Workload &workload,
             const arch::SocConfig &soc,
             const arch::Constraints &constraints,
             const BuildOptions &options)
{
    if (!soc.valid())
        fatal("invalid SoC configuration %s", soc.name().c_str());

    ProblemSpec spec;
    spec.name = format("%s on %s", workload.name.c_str(),
                       soc.name().c_str());
    spec.cpuCores = soc.cpuCores;
    spec.powerBudgetW = constraints.powerBudgetW;
    spec.bandwidthGBs = constraints.memory.bandwidthGBs;
    for (const arch::CacheLevel &level : constraints.cacheLevels)
        spec.extraResources.push_back(
            {level.name, level.bandwidthGBs});

    // Note: memory access energy (MemorySpec::wattsPerGBs) is NOT
    // charged against p_max. The paper's power constraint covers the
    // compute units only - its dark-silicon arithmetic (a 50 W budget
    // admits a 64-SM GPU at exactly 300 MHz) leaves no room for a
    // memory term.
    const std::vector<int> clocks = clockList(options);
    const std::vector<int> cores = coreList(options, soc.cpuCores);

    // Device table: GPU first (if present), then the DSAs.
    int gpu_device = -1;
    if (soc.gpuSms > 0) {
        gpu_device = static_cast<int>(spec.deviceNames.size());
        spec.deviceNames.push_back(format("GPU%d", soc.gpuSms));
    }
    std::vector<int> dsa_devices;
    for (size_t d = 0; d < soc.dsas.size(); ++d) {
        dsa_devices.push_back(static_cast<int>(spec.deviceNames.size()));
        spec.deviceNames.push_back(
            format("DSA%zu[t%d]", d, soc.dsas[d].target));
    }

    for (const workload::Application &app : workload.apps) {
        AppSpec app_spec;
        app_spec.name = app.name;
        app_spec.deps = app.deps;
        for (const PhaseProfile &phase : app.phases) {
            PhaseSpec phase_spec;
            phase_spec.name = phase.name;

            if (phase.kind == PhaseKind::Sequential) {
                UnitOption option;
                option.label = "CPU";
                option.device = kCpuPool;
                option.timeS = workload::cpuTimeS(phase, 1);
                option.bwGBs = options.sequentialBwGBs;
                option.powerW = arch::kCpuCorePowerW;
                option.cpuCores = 1.0;
                phase_spec.options.push_back(option);
            } else {
                // CPU executions at the offered core counts.
                for (int c : cores) {
                    UnitOption option;
                    option.label = "CPUx" + std::to_string(c);
                    option.device = kCpuPool;
                    option.timeS = workload::cpuTimeS(phase, c);
                    option.bwGBs = workload::cpuBwGBs(phase, c);
                    option.powerW = arch::kCpuCorePowerW * c;
                    option.cpuCores = c;
                    phase_spec.options.push_back(option);
                }
                // GPU executions at every operating point.
                if (gpu_device >= 0 && phase.gpuCompatible) {
                    for (int clock : clocks) {
                        UnitOption option;
                        option.label = "GPU@" + std::to_string(clock);
                        option.device = gpu_device;
                        option.timeS = workload::acceleratorTimeS(
                            phase, soc.gpuSms, clock);
                        option.bwGBs = workload::acceleratorBwGBs(
                            phase, soc.gpuSms, clock);
                        option.powerW =
                            arch::gpuPowerW(soc.gpuSms, clock);
                        option.cpuCores = 0.0;
                        phase_spec.options.push_back(option);
                    }
                }
                // The phase's DSA, if this SoC provides one.
                for (size_t d = 0; d < soc.dsas.size(); ++d) {
                    const arch::DsaSpec &dsa = soc.dsas[d];
                    if (dsa.target != phase.dsaTarget ||
                        phase.dsaTarget < 0 || !phase.gpuCompatible)
                        continue;
                    // A PE performs like `advantage` SMs but draws
                    // the power of one SM (see arch::DsaSpec).
                    int effective_sms = std::max(1,
                        static_cast<int>(std::lround(
                            dsa.pes * soc.dsaAdvantage)));
                    for (int clock : clocks) {
                        UnitOption option;
                        option.label = "DSA" + std::to_string(d) + "@" +
                                       std::to_string(clock);
                        option.device = dsa_devices[d];
                        option.timeS = workload::acceleratorTimeS(
                            phase, effective_sms, clock);
                        option.bwGBs = workload::acceleratorBwGBs(
                            phase, effective_sms, clock);
                        option.powerW =
                            arch::dsaPowerW(dsa.pes, clock);
                        option.cpuCores = 0.0;
                        phase_spec.options.push_back(option);
                    }
                }
            }

            // Cache-level traffic scales with the option's DRAM
            // bandwidth (Section VII memory-hierarchy extension).
            if (!constraints.cacheLevels.empty()) {
                for (UnitOption &option : phase_spec.options) {
                    option.extraUsage.clear();
                    for (const arch::CacheLevel &level :
                         constraints.cacheLevels) {
                        option.extraUsage.push_back(
                            option.bwGBs *
                            level.trafficAmplification);
                    }
                }
            }

            // Options that bust a budget outright can never run.
            std::erase_if(phase_spec.options,
                          [&](const UnitOption &option) {
                if (option.powerW > spec.powerBudgetW ||
                    option.bwGBs > spec.bandwidthGBs ||
                    option.cpuCores > spec.cpuCores)
                    return true;
                for (size_t r = 0; r < option.extraUsage.size(); ++r)
                    if (option.extraUsage[r] >
                        spec.extraResources[r].capacity)
                        return true;
                return false;
            });

            app_spec.phases.push_back(std::move(phase_spec));
        }
        spec.apps.push_back(std::move(app_spec));
    }

    if (options.pruneDominated) {
        // Can the budgets ever bind? Conservative worst case: every
        // device draws its maximum option simultaneously.
        double worst_power = soc.cpuCores * arch::kCpuCorePowerW;
        double worst_bw = 0.0;
        std::vector<double> device_power(spec.deviceNames.size(), 0.0);
        // Bandwidth worst case: every device plus each CPU core
        // streaming the most demanding option at once.
        std::vector<double> device_bw(spec.deviceNames.size() + 1,
                                      0.0);
        for (const AppSpec &app : spec.apps) {
            for (const PhaseSpec &phase : app.phases) {
                for (const UnitOption &option : phase.options) {
                    if (option.device != kCpuPool) {
                        device_power[option.device] = std::max(
                            device_power[option.device],
                            option.powerW);
                    }
                    // CPU-pool options compete for the same cores,
                    // so their concurrent worst case is bounded by
                    // the pool size times the worst per-core demand.
                    size_t slot = option.device == kCpuPool
                        ? spec.deviceNames.size()
                        : static_cast<size_t>(option.device);
                    double demand = option.device == kCpuPool
                        ? option.bwGBs / std::max(1.0, option.cpuCores)
                        : option.bwGBs;
                    device_bw[slot] = std::max(device_bw[slot],
                                               demand);
                }
            }
        }
        for (double p : device_power)
            worst_power += p;
        for (size_t slot = 0; slot < device_bw.size(); ++slot) {
            double multiplier =
                slot == spec.deviceNames.size() ? soc.cpuCores : 1.0;
            worst_bw += device_bw[slot] * multiplier;
        }

        bool power_binds = worst_power > spec.powerBudgetW;
        // Cache-level demands scale with DRAM bandwidth, so keeping
        // the bandwidth dimension in the dominance check keeps the
        // pruning sound whenever cache levels are modeled.
        bool bw_binds = worst_bw > spec.bandwidthGBs ||
                        !constraints.cacheLevels.empty();
        for (AppSpec &app : spec.apps)
            for (PhaseSpec &phase : app.phases)
                pruneDominated(phase, power_binds, bw_binds);
    }

    return spec;
}

} // namespace hilp
