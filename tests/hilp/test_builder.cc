/** @file Unit tests for problem lowering (the T/B/P/E/U matrices). */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/dvfs.hh"
#include "arch/parse.hh"
#include "hilp/builder.hh"
#include "workload/rodinia.hh"
#include "workload/scaling.hh"

namespace hilp {
namespace {

using workload::Variant;
using workload::makeWorkload;
using workload::rodiniaIndex;

/** Find a phase spec by name; fails the test when missing. */
const PhaseSpec &
findPhase(const ProblemSpec &spec, const std::string &name)
{
    for (const AppSpec &app : spec.apps)
        for (const PhaseSpec &phase : app.phases)
            if (phase.name == name)
                return phase;
    ADD_FAILURE() << "phase " << name << " not found";
    static PhaseSpec missing;
    return missing;
}

arch::SocConfig
paperSoc()
{
    arch::SocConfig soc;
    soc.cpuCores = 4;
    soc.gpuSms = 16;
    auto priority = workload::dsaPriorityOrder();
    soc.dsas = {{16, priority[0]}, {16, priority[1]}};
    return soc;
}

TEST(Builder, SpecShapeMatchesWorkloadAndSoc)
{
    ProblemSpec spec = buildProblem(makeWorkload(Variant::Default),
                                    paperSoc(), arch::Constraints{});
    EXPECT_EQ(spec.apps.size(), 10u);
    EXPECT_EQ(spec.numPhases(), 30);
    EXPECT_EQ(spec.deviceNames.size(), 3u); // GPU + 2 DSAs.
    EXPECT_DOUBLE_EQ(spec.cpuCores, 4.0);
    EXPECT_DOUBLE_EQ(spec.powerBudgetW, 600.0);
    EXPECT_DOUBLE_EQ(spec.bandwidthGBs, 800.0);
    EXPECT_EQ(spec.validate(), "");
}

TEST(Builder, SequentialPhasesAreCpuOnly)
{
    ProblemSpec spec = buildProblem(makeWorkload(Variant::Default),
                                    paperSoc(), arch::Constraints{});
    const PhaseSpec &setup = findPhase(spec, "HS.setup");
    ASSERT_EQ(setup.options.size(), 1u);
    EXPECT_EQ(setup.options[0].device, kCpuPool);
    EXPECT_DOUBLE_EQ(setup.options[0].cpuCores, 1.0);
    EXPECT_NEAR(setup.options[0].timeS, 80.8 / 5.0, 1e-9);
    EXPECT_NEAR(setup.options[0].powerW, arch::kCpuCorePowerW,
                1e-9);
}

TEST(Builder, UnconstrainedBudgetPrunesToTopClock)
{
    // At 600 W nothing binds: each device keeps only its fastest
    // operating point, which is the paper's idealized-DVFS optimum.
    ProblemSpec spec = buildProblem(makeWorkload(Variant::Default),
                                    paperSoc(), arch::Constraints{});
    const PhaseSpec &hs = findPhase(spec, "HS.compute");
    int gpu_options = 0;
    int dsa_options = 0;
    for (const UnitOption &option : hs.options) {
        if (option.label.rfind("GPU", 0) == 0)
            ++gpu_options;
        if (option.label.rfind("DSA", 0) == 0)
            ++dsa_options;
    }
    EXPECT_EQ(gpu_options, 1);
    EXPECT_EQ(dsa_options, 1);
}

TEST(Builder, DsaMatchesOnlyItsTarget)
{
    ProblemSpec spec = buildProblem(makeWorkload(Variant::Default),
                                    paperSoc(), arch::Constraints{});
    // The two DSAs target LUD and HS; BFS must not see them.
    const PhaseSpec &bfs = findPhase(spec, "BFS.compute");
    for (const UnitOption &option : bfs.options)
        EXPECT_EQ(option.label.rfind("DSA", 0), std::string::npos)
            << option.label;
    const PhaseSpec &lud = findPhase(spec, "LUD.compute");
    bool has_dsa = false;
    for (const UnitOption &option : lud.options)
        has_dsa = has_dsa || option.label.rfind("DSA", 0) == 0;
    EXPECT_TRUE(has_dsa);
}

TEST(Builder, DsaPerformsLikeAdvantageTimesPes)
{
    // Key reverse-engineered semantic: a 16-PE DSA at 4x advantage
    // matches a 64-SM GPU's execution time.
    ProblemSpec spec = buildProblem(makeWorkload(Variant::Default),
                                    paperSoc(), arch::Constraints{});
    const PhaseSpec &hs = findPhase(spec, "HS.compute");
    const workload::PhaseProfile hs_profile =
        workload::makeRodiniaApp(rodiniaIndex("HS"), 5.0).phases[1];
    double gpu64_time =
        workload::acceleratorTimeS(hs_profile, 64, 765);
    for (const UnitOption &option : hs.options) {
        if (option.label.rfind("DSA", 0) == 0)
            EXPECT_NEAR(option.timeS, gpu64_time, 1e-9);
    }
}

TEST(Builder, DsaPowerIsQuarterOfEqualPerformanceGpu)
{
    ProblemSpec spec = buildProblem(makeWorkload(Variant::Default),
                                    paperSoc(), arch::Constraints{});
    const PhaseSpec &hs = findPhase(spec, "HS.compute");
    for (const UnitOption &option : hs.options) {
        if (option.label.rfind("DSA", 0) == 0) {
            EXPECT_NEAR(option.powerW, arch::gpuPowerW(64, 765) / 4.0,
                        1e-9);
        }
    }
}

TEST(Builder, TightPowerBudgetKeepsLowClockOptions)
{
    arch::Constraints constraints;
    constraints.powerBudgetW = 50.0;
    arch::SocConfig soc;
    soc.cpuCores = 4;
    soc.gpuSms = 64;
    ProblemSpec spec = buildProblem(makeWorkload(Variant::Optimized),
                                    soc, constraints);
    const PhaseSpec &hs = findPhase(spec, "HS.compute");
    int gpu_options = 0;
    double max_power = 0.0;
    for (const UnitOption &option : hs.options) {
        if (option.label.rfind("GPU", 0) == 0) {
            ++gpu_options;
            max_power = std::max(max_power, option.powerW);
        }
    }
    // Paper anecdote: 50 W admits the 64-SM GPU up to 300 MHz,
    // i.e. the 210/240/300 operating points.
    EXPECT_EQ(gpu_options, 3);
    EXPECT_LE(max_power, 50.0);
}

TEST(Builder, CpuComputeOptionsUsePowersOfTwo)
{
    ProblemSpec spec = buildProblem(makeWorkload(Variant::Default),
                                    paperSoc(), arch::Constraints{});
    const PhaseSpec &hs = findPhase(spec, "HS.compute");
    std::vector<double> cores;
    for (const UnitOption &option : hs.options)
        if (option.device == kCpuPool)
            cores.push_back(option.cpuCores);
    EXPECT_EQ(cores, (std::vector<double>{1.0, 2.0, 4.0}));
}

TEST(Builder, NoGpuSocHasNoGpuOptions)
{
    arch::SocConfig soc;
    soc.cpuCores = 2;
    ProblemSpec spec = buildProblem(makeWorkload(Variant::Default),
                                    soc, arch::Constraints{});
    EXPECT_TRUE(spec.deviceNames.empty());
    for (const AppSpec &app : spec.apps)
        for (const PhaseSpec &phase : app.phases)
            for (const UnitOption &option : phase.options)
                EXPECT_EQ(option.device, kCpuPool);
}

TEST(Builder, ExplicitClockSubsetIsHonoured)
{
    BuildOptions options;
    options.clocksMhz = {300, 765};
    options.pruneDominated = false;
    ProblemSpec spec = buildProblem(makeWorkload(Variant::Default),
                                    paperSoc(), arch::Constraints{},
                                    options);
    const PhaseSpec &hs = findPhase(spec, "HS.compute");
    int gpu_options = 0;
    for (const UnitOption &option : hs.options)
        if (option.label.rfind("GPU", 0) == 0)
            ++gpu_options;
    EXPECT_EQ(gpu_options, 2);
}

TEST(Builder, PruningPreservesBestUnconstrainedOption)
{
    // With and without pruning, the fastest option per device of
    // every phase must be identical under an unconstrained budget.
    BuildOptions no_prune;
    no_prune.pruneDominated = false;
    ProblemSpec full = buildProblem(makeWorkload(Variant::Default),
                                    paperSoc(), arch::Constraints{},
                                    no_prune);
    ProblemSpec pruned = buildProblem(makeWorkload(Variant::Default),
                                      paperSoc(), arch::Constraints{});
    for (size_t a = 0; a < full.apps.size(); ++a) {
        for (size_t p = 0; p < full.apps[a].phases.size(); ++p) {
            double best_full = 1e300;
            for (const UnitOption &option :
                 full.apps[a].phases[p].options)
                best_full = std::min(best_full, option.timeS);
            double best_pruned = 1e300;
            for (const UnitOption &option :
                 pruned.apps[a].phases[p].options)
                best_pruned = std::min(best_pruned, option.timeS);
            EXPECT_DOUBLE_EQ(best_full, best_pruned);
        }
    }
}

TEST(Builder, BandwidthBudgetDropsDemandingOptions)
{
    arch::Constraints constraints;
    constraints.memory.bandwidthGBs = 50.0;
    arch::SocConfig soc;
    soc.cpuCores = 4;
    soc.gpuSms = 16;
    ProblemSpec spec = buildProblem(makeWorkload(Variant::Optimized),
                                    soc, constraints);
    // SC demands ~216 GB/s on a 16-SM GPU: no GPU option survives.
    const PhaseSpec &sc = findPhase(spec, "SC.compute");
    for (const UnitOption &option : sc.options)
        EXPECT_EQ(option.device, kCpuPool) << option.label;
    EXPECT_EQ(spec.validate(), ""); // CPU fallback keeps it valid.
}

TEST(Builder, FingerprintsAndLabelsArePinned)
{
    // The fingerprint keys the solve memo and every checkpoint
    // record, and it hashes each option label: a label that renders
    // differently orphans every stored result.
    const workload::Workload rodinia = makeWorkload(Variant::Default);
    auto fingerprint = [&rodinia](const std::string &label) {
        arch::SocParseResult soc =
            arch::parseSocName(label, workload::dsaPriorityOrder());
        EXPECT_TRUE(soc.ok) << soc.error;
        return buildProblem(rodinia, soc.config, arch::Constraints{})
            .fingerprint();
    };
    EXPECT_EQ(fingerprint("(c4,g16,d2^16)"), 0xccede40e23a8ccbdull);
    EXPECT_EQ(fingerprint("(c1,g4,d0^0)"), 0x5d31ccff2f29bc69ull);

    ProblemSpec spec =
        buildProblem(rodinia, paperSoc(), arch::Constraints{});
    std::vector<std::string> labels;
    for (const UnitOption &option : findPhase(spec, "HS.compute").options)
        labels.push_back(option.label);
    EXPECT_EQ(labels, (std::vector<std::string>{
                          "CPUx1", "CPUx2", "CPUx4", "GPU@765",
                          "DSA1@765"}));
}

} // anonymous namespace
} // namespace hilp
