#include "synthetic.hh"

#include <cmath>

#include "workload/scaling.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/str.hh"

namespace hilp {
namespace workload {

namespace {

/** Log-uniform sample in [lo, hi]. */
double
logUniform(Rng &rng, double lo, double hi)
{
    hilp_assert(lo > 0.0 && hi >= lo);
    return std::exp(rng.uniformDouble(std::log(lo), std::log(hi)));
}

} // anonymous namespace

Workload
makeSyntheticWorkload(const SyntheticOptions &options)
{
    hilp_assert(options.numApps >= 1);
    hilp_assert(options.minComputePhases >= 1);
    hilp_assert(options.maxComputePhases >= options.minComputePhases);

    Rng rng(options.seed);
    Workload workload;
    workload.name = format("synthetic-%llu",
        static_cast<unsigned long long>(options.seed));

    for (int a = 0; a < options.numApps; ++a) {
        Application app;
        app.name = format("syn%d", a);

        PhaseProfile setup;
        setup.name = format("syn%d.setup", a);
        setup.kind = PhaseKind::Sequential;
        setup.cpuTime1 = logUniform(rng, options.minSetupS,
                                    options.maxSetupS);
        app.phases.push_back(setup);

        int computes = static_cast<int>(rng.uniformInt(
            options.minComputePhases, options.maxComputePhases));
        bool dsa_targetable = rng.chance(options.dsaTargetFraction);
        for (int c = 0; c < computes; ++c) {
            PhaseProfile compute;
            compute.name = format("syn%d.compute%d", a, c);
            compute.kind = PhaseKind::Compute;
            compute.cpuTime1 = logUniform(rng, options.minComputeCpuS,
                                          options.maxComputeCpuS);
            compute.gpuCompatible = true;
            double speedup = logUniform(rng, options.minGpuSpeedup98,
                                        options.maxGpuSpeedup98);
            compute.gpuTime98 = compute.cpuTime1 / speedup;
            compute.gpuBwBase = logUniform(rng, options.minBw98,
                                         options.maxBw98);
            double exponent = rng.uniformDouble(-1.0, -0.5);
            compute.timeLaw = {std::pow(14.0, -exponent), exponent,
                               1.0};
            double bw_exp = rng.uniformDouble(0.5, 1.0);
            compute.bwLaw = {std::pow(14.0, -bw_exp), bw_exp, 1.0};
            compute.freqGamma = frequencyGamma(compute.gpuBwBase);
            compute.dsaTarget = dsa_targetable && c == 0 ? a : -1;
            app.phases.push_back(compute);
        }

        PhaseProfile teardown;
        teardown.name = format("syn%d.teardown", a);
        teardown.kind = PhaseKind::Sequential;
        teardown.cpuTime1 = logUniform(rng, options.minSetupS,
                                       options.maxSetupS);
        app.phases.push_back(teardown);

        workload.apps.push_back(std::move(app));
    }
    return workload;
}

} // namespace workload
} // namespace hilp
