#include "builder.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <string>

#include "arch/dvfs.hh"
#include "support/hash.hh"
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

/**
 * Remove options dominated by another option of the same phase,
 * moving the kept ones into place. `dominated` is scratch, reused
 * across phases.
 */
void
pruneDominated(PhaseSpec &phase, bool power_binds, bool bw_binds,
               std::vector<char> &dominated)
{
    std::vector<UnitOption> &options = phase.options;
    dominated.assign(options.size(), 0);
    for (size_t i = 0; i < options.size(); ++i) {
        for (size_t j = 0; j < options.size() && !dominated[i]; ++j) {
            if (i == j)
                continue;
            if (!dominates(options[j], options[i], power_binds,
                           bw_binds))
                continue;
            // Symmetric (equal) options: keep only the first.
            if (dominates(options[i], options[j], power_binds,
                          bw_binds) && i < j)
                continue;
            dominated[i] = 1;
        }
    }
    // A phase whose options were all filtered out by the budgets is
    // left empty here; ProblemSpec::validate reports it to the user.
    size_t kept = 0;
    for (size_t i = 0; i < options.size(); ++i) {
        if (dominated[i])
            continue;
        if (kept != i)
            options[kept] = std::move(options[i]);
        ++kept;
    }
    options.erase(options.begin() + static_cast<ptrdiff_t>(kept),
                  options.end());
}

/**
 * One accelerator of the SoC as lowering offers it: its device, the
 * unit count it performs like, its option labels' prefix, and its
 * power at each clock of the lowering, looked up once.
 */
struct Accelerator
{
    int device = 0;
    int units = 0;
    std::string labelPrefix;
    std::vector<double> powerW;
};

/**
 * Mix a double by its exact bits. Unlike Hasher::f64 this keeps 0.0
 * and -0.0 apart: an input divides or compares its way into several
 * lowered numbers, and a signed zero can lower differently.
 */
void
mixExact(Hasher &hasher, double value)
{
    hasher.u64(std::bit_cast<uint64_t>(value));
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
    // Option labels are "CPUx<cores>" and "<device>@<clock>"; render
    // each number once per lowering.
    std::vector<std::string> core_labels;
    core_labels.reserve(cores.size());
    for (int c : cores)
        core_labels.push_back("CPUx" + std::to_string(c));
    std::vector<std::string> clock_labels;
    clock_labels.reserve(clocks.size());
    for (int clock : clocks)
        clock_labels.push_back(std::to_string(clock));

    // Device table: GPU first (if present), then the DSAs. An
    // accelerator's power depends on its clock only.
    spec.deviceNames.reserve((soc.gpuSms > 0 ? 1 : 0) + soc.dsas.size());
    auto accelerator = [&](int units, std::string label_prefix,
                           std::string device_name, auto &&power_w) {
        Accelerator unit;
        unit.device = static_cast<int>(spec.deviceNames.size());
        unit.units = units;
        unit.labelPrefix = std::move(label_prefix);
        unit.powerW.reserve(clocks.size());
        for (int clock : clocks)
            unit.powerW.push_back(power_w(clock));
        spec.deviceNames.push_back(std::move(device_name));
        return unit;
    };
    std::optional<Accelerator> gpu;
    if (soc.gpuSms > 0) {
        gpu = accelerator(soc.gpuSms, "GPU@",
                          "GPU" + std::to_string(soc.gpuSms),
                          [&](int clock) {
                              return arch::gpuPowerW(soc.gpuSms, clock);
                          });
    }
    std::vector<Accelerator> dsas;
    dsas.reserve(soc.dsas.size());
    for (size_t d = 0; d < soc.dsas.size(); ++d) {
        const arch::DsaSpec &dsa = soc.dsas[d];
        // A PE performs like `advantage` SMs but draws the power of
        // one SM (see arch::DsaSpec).
        int effective_sms = std::max(1, static_cast<int>(std::lround(
            dsa.pes * soc.dsaAdvantage)));
        const std::string name = "DSA" + std::to_string(d);
        dsas.push_back(accelerator(
            effective_sms, name + "@",
            name + "[t" + std::to_string(dsa.target) + "]",
            [&](int clock) { return arch::dsaPowerW(dsa.pes, clock); }));
    }

    // Per compute phase: the accelerators that can run it and the
    // clock factors their options share.
    std::vector<const Accelerator *> targets;
    std::vector<double> clock_factors;
    spec.apps.reserve(workload.apps.size());
    for (const workload::Application &app : workload.apps) {
        AppSpec app_spec;
        app_spec.name = app.name;
        app_spec.deps = app.deps;
        app_spec.phases.reserve(app.phases.size());
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
                phase_spec.options.push_back(std::move(option));
            } else {
                // The accelerators that can run this phase, each at
                // every operating point: the GPU, and the phase's DSA
                // if this SoC provides one.
                targets.clear();
                if (gpu && phase.gpuCompatible)
                    targets.push_back(&*gpu);
                for (size_t d = 0; d < soc.dsas.size(); ++d)
                    if (soc.dsas[d].target == phase.dsaTarget &&
                        phase.dsaTarget >= 0 && phase.gpuCompatible)
                        targets.push_back(&dsas[d]);
                phase_spec.options.reserve(
                    cores.size() + targets.size() * clocks.size());

                // CPU executions at the offered core counts.
                const double traffic_gb = workload::cpuTrafficGB(phase);
                for (size_t k = 0; k < cores.size(); ++k) {
                    const int c = cores[k];
                    UnitOption &option = phase_spec.options.emplace_back();
                    option.label = core_labels[k];
                    option.device = kCpuPool;
                    option.timeS = workload::cpuTimeS(phase, c);
                    option.bwGBs =
                        workload::cpuBwGBs(phase, traffic_gb, option.timeS);
                    option.powerW = arch::kCpuCorePowerW * c;
                    option.cpuCores = c;
                }

                if (!targets.empty()) {
                    clock_factors.clear();
                    for (int clock : clocks)
                        clock_factors.push_back(
                            workload::clockFactor(phase, clock));
                }
                for (const Accelerator *target : targets) {
                    const double base_time_s =
                        workload::acceleratorBaseTimeS(phase,
                                                       target->units);
                    const double base_bw_gbs =
                        workload::acceleratorBaseBwGBs(phase,
                                                       target->units);
                    for (size_t k = 0; k < clocks.size(); ++k) {
                        UnitOption &option =
                            phase_spec.options.emplace_back();
                        option.label = target->labelPrefix;
                        option.label += clock_labels[k];
                        option.device = target->device;
                        option.timeS = base_time_s * clock_factors[k];
                        option.bwGBs = base_bw_gbs / clock_factors[k];
                        option.powerW = target->powerW[k];
                        option.cpuCores = 0.0;
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
        std::vector<char> dominated;
        for (AppSpec &app : spec.apps)
            for (PhaseSpec &phase : app.phases)
                pruneDominated(phase, power_binds, bw_binds, dominated);
    }

    return spec;
}

uint64_t
loweringDigest(const workload::Workload &workload,
               const arch::Constraints &constraints,
               const BuildOptions &options)
{
    // The workload's name only names the spec, which the fingerprint
    // does not hash, so instances of renamed workloads share results.
    Hasher hasher;
    hasher.u64(workload.apps.size());
    for (const workload::Application &app : workload.apps) {
        hasher.str(app.name);
        hasher.u64(app.deps.size());
        for (auto [from, to] : app.deps) {
            hasher.i64(from);
            hasher.i64(to);
        }
        hasher.u64(app.phases.size());
        for (const PhaseProfile &phase : app.phases) {
            hasher.str(phase.name);
            hasher.i64(static_cast<int64_t>(phase.kind));
            mixExact(hasher, phase.cpuTime1);
            hasher.boolean(phase.gpuCompatible);
            mixExact(hasher, phase.gpuTime98);
            mixExact(hasher, phase.gpuBwBase);
            // The scaling model reads only each law's exponent
            // (PowerLaw::scaleFrom does not depend on the coefficient,
            // and r2 describes the fit).
            mixExact(hasher, phase.timeLaw.b);
            mixExact(hasher, phase.bwLaw.b);
            mixExact(hasher, phase.freqGamma);
            hasher.i64(phase.dsaTarget);
        }
    }
    mixExact(hasher, constraints.powerBudgetW);
    mixExact(hasher, constraints.memory.bandwidthGBs);
    hasher.u64(constraints.cacheLevels.size());
    for (const arch::CacheLevel &level : constraints.cacheLevels) {
        hasher.str(level.name);
        mixExact(hasher, level.bandwidthGBs);
        mixExact(hasher, level.trafficAmplification);
    }
    hasher.u64(options.clocksMhz.size());
    for (int clock : options.clocksMhz)
        hasher.i64(clock);
    hasher.boolean(options.pruneDominated);
    mixExact(hasher, options.sequentialBwGBs);
    hasher.u64(options.cpuCoreOptions.size());
    for (int cores : options.cpuCoreOptions)
        hasher.i64(cores);
    return hasher.digest();
}

uint64_t
loweringDigest(uint64_t inputs, const arch::SocConfig &soc)
{
    Hasher hasher;
    hasher.u64(inputs);
    hasher.i64(soc.cpuCores);
    hasher.i64(soc.gpuSms);
    hasher.u64(soc.dsas.size());
    for (const arch::DsaSpec &dsa : soc.dsas) {
        hasher.i64(dsa.pes);
        hasher.i64(dsa.target);
    }
    mixExact(hasher, soc.dsaAdvantage);
    return hasher.digest();
}

} // namespace hilp
