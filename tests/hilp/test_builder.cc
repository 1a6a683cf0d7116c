/** @file Unit tests for problem lowering (the T/B/P/E/U matrices). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arch/design_space.hh"
#include "arch/dvfs.hh"
#include "arch/parse.hh"
#include "hilp/builder.hh"
#include "support/hash.hh"
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
        if (option.label.rfind("DSA", 0) == 0) {
            EXPECT_NEAR(option.timeS, gpu64_time, 1e-9);
        }
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

TEST(Builder, Fig7FingerprintsArePinned)
{
    // Every option of every fig7 instance under three budgets, in
    // sweep order: a lowered number that moves by one ulp moves the
    // seed salts, the memo keys and every checkpoint key.
    const workload::Workload rodinia = makeWorkload(Variant::Default);
    const std::vector<arch::SocConfig> space = arch::enumerateDesignSpace(
        arch::DesignSpace{}, workload::dsaPriorityOrder());
    ASSERT_EQ(space.size(), 372u);
    Hasher hasher;
    for (double budget_w : {600.0, 100.0, 50.0}) {
        arch::Constraints constraints;
        constraints.powerBudgetW = budget_w;
        for (const arch::SocConfig &config : space)
            hasher.u64(
                buildProblem(rodinia, config, constraints).fingerprint());
    }
    EXPECT_EQ(hasher.digest(), 0x4ba2d681ca11e498ull);
}

/** Everything buildProblem reads, as one value to mutate. */
struct LoweringInputs
{
    workload::Workload workload;
    arch::SocConfig soc;
    arch::Constraints constraints;
    BuildOptions options;

    uint64_t
    digest() const
    {
        return loweringDigest(
            loweringDigest(workload, constraints, options), soc);
    }

    uint64_t
    fingerprint() const
    {
        return buildProblem(workload, soc, constraints, options)
            .fingerprint();
    }
};

TEST(Builder, LoweringDigestSeparatesEveryInput)
{
    // A memo serves a point by its lowering digest without lowering
    // it, so two inputs that lower to different instances must never
    // share a digest. The base makes every field reach the instance:
    // a budget that keeps low clocks (so freqGamma counts), a cache
    // level, and a DSA on the mutated phase's target.
    LoweringInputs base;
    base.workload = makeWorkload(Variant::Default);
    base.soc = paperSoc();
    // The first application's chain, spelled out, so that an edge's
    // ends can change one at a time.
    base.workload.apps[0].deps = {{0, 1}, {1, 2}};
    base.constraints.powerBudgetW = 100.0;
    base.constraints.cacheLevels.push_back({"L2", 4000.0, 2.0});
    // The default clocks and core counts, spelled out likewise.
    for (const arch::GpuOperatingPoint &point : arch::gpuOperatingPoints())
        base.options.clocksMhz.push_back(point.clockMhz);
    base.options.cpuCoreOptions = {1, 2, 4};
    const std::vector<int> priority = workload::dsaPriorityOrder();
    size_t app_index = 0;
    while (base.workload.apps[app_index].phases[1].dsaTarget !=
           priority[0])
        ++app_index;
    auto app = [](LoweringInputs &in) -> workload::Application & {
        return in.workload.apps[0];
    };
    auto phase = [app_index](LoweringInputs &in)
        -> workload::PhaseProfile & {
        return in.workload.apps[app_index].phases[1];
    };
    ASSERT_EQ(phase(base).kind, workload::PhaseKind::Compute);

    using Mutation = std::pair<const char *,
                               std::function<void(LoweringInputs &)>>;
    // Each field lowering reads, changed on its own.
    const std::vector<Mutation> read = {
        {"app name", [&](LoweringInputs &in) { app(in).name += "x"; }},
        {"dep source",
         [&](LoweringInputs &in) { app(in).deps[1].first = 0; }},
        {"dep target",
         [&](LoweringInputs &in) { app(in).deps[0].second = 2; }},
        {"app phase count",
         [&](LoweringInputs &in) { app(in).phases.pop_back(); }},
        {"app count",
         [](LoweringInputs &in) { in.workload.apps.pop_back(); }},
        {"phase name",
         [&](LoweringInputs &in) { phase(in).name += "x"; }},
        {"phase kind",
         [&](LoweringInputs &in) {
             phase(in).kind = workload::PhaseKind::Sequential;
         }},
        {"cpuTime1",
         [&](LoweringInputs &in) { phase(in).cpuTime1 *= 1.5; }},
        {"sequential cpuTime1",
         [&](LoweringInputs &in) {
             in.workload.apps[app_index].phases[0].cpuTime1 *= 1.5;
         }},
        {"gpuCompatible",
         [&](LoweringInputs &in) { phase(in).gpuCompatible = false; }},
        {"gpuTime98",
         [&](LoweringInputs &in) { phase(in).gpuTime98 *= 1.5; }},
        {"gpuBwBase",
         [&](LoweringInputs &in) { phase(in).gpuBwBase *= 1.5; }},
        {"timeLaw.b",
         [&](LoweringInputs &in) { phase(in).timeLaw.b -= 0.1; }},
        {"bwLaw.b",
         [&](LoweringInputs &in) { phase(in).bwLaw.b += 0.1; }},
        {"freqGamma",
         [&](LoweringInputs &in) { phase(in).freqGamma *= 0.5; }},
        {"dsaTarget",
         [&](LoweringInputs &in) { phase(in).dsaTarget = -1; }},
        {"powerBudgetW",
         [](LoweringInputs &in) { in.constraints.powerBudgetW = 90.0; }},
        {"memory bandwidth",
         [](LoweringInputs &in) {
             in.constraints.memory.bandwidthGBs = 700.0;
         }},
        {"cache level count",
         [](LoweringInputs &in) { in.constraints.cacheLevels.clear(); }},
        {"cache level name",
         [](LoweringInputs &in) {
             in.constraints.cacheLevels[0].name = "L3";
         }},
        {"cache level bandwidth",
         [](LoweringInputs &in) {
             in.constraints.cacheLevels[0].bandwidthGBs = 3000.0;
         }},
        {"cache level amplification",
         [](LoweringInputs &in) {
             in.constraints.cacheLevels[0].trafficAmplification = 3.0;
         }},
        {"clocksMhz",
         [](LoweringInputs &in) {
             std::reverse(in.options.clocksMhz.begin(),
                          in.options.clocksMhz.end());
         }},
        {"pruneDominated",
         [](LoweringInputs &in) { in.options.pruneDominated = false; }},
        {"sequentialBwGBs",
         [](LoweringInputs &in) { in.options.sequentialBwGBs = 2.0; }},
        {"cpuCoreOptions",
         [](LoweringInputs &in) { in.options.cpuCoreOptions = {1, 2, 3}; }},
        {"cpuCores", [](LoweringInputs &in) { in.soc.cpuCores = 8; }},
        {"gpuSms", [](LoweringInputs &in) { in.soc.gpuSms = 64; }},
        {"DSA count", [](LoweringInputs &in) { in.soc.dsas.pop_back(); }},
        {"DSA pes", [](LoweringInputs &in) { in.soc.dsas[0].pes = 64; }},
        {"DSA target",
         [&](LoweringInputs &in) { in.soc.dsas[0].target = priority[2]; }},
        {"dsaAdvantage",
         [](LoweringInputs &in) { in.soc.dsaAdvantage = 2.0; }},
    };
    // Inputs that lowering does not read, or that lower alike: they
    // may keep the digest, but must not split one digest across two
    // instances either.
    const std::vector<Mutation> unread = {
        {"implicit chain", [&](LoweringInputs &in) { app(in).deps.clear(); }},
        {"default clocks",
         [](LoweringInputs &in) { in.options.clocksMhz.clear(); }},
        {"default core counts",
         [](LoweringInputs &in) { in.options.cpuCoreOptions.clear(); }},
        {"workload name",
         [](LoweringInputs &in) { in.workload.name += "x"; }},
        {"timeLaw.a",
         [&](LoweringInputs &in) { phase(in).timeLaw.a *= 2.0; }},
        {"timeLaw.r2",
         [&](LoweringInputs &in) { phase(in).timeLaw.r2 = 0.5; }},
        {"bwLaw.a", [&](LoweringInputs &in) { phase(in).bwLaw.a *= 2.0; }},
        {"bwLaw.r2", [&](LoweringInputs &in) { phase(in).bwLaw.r2 = 0.5; }},
        {"memory pJ/bit",
         [](LoweringInputs &in) { in.constraints.memory.pjPerBit = 3.0; }},
    };

    const uint64_t base_fingerprint = base.fingerprint();
    std::map<uint64_t, uint64_t> instance_of{
        {base.digest(), base_fingerprint}};
    auto expectOneInstancePerDigest = [&](const char *name,
                                          const LoweringInputs &in) {
        auto it =
            instance_of.try_emplace(in.digest(), in.fingerprint()).first;
        EXPECT_EQ(it->second, in.fingerprint())
            << name << ": one digest names two instances";
    };
    for (const auto &[name, mutate] : read) {
        LoweringInputs in = base;
        mutate(in);
        EXPECT_NE(in.fingerprint(), base_fingerprint)
            << name << " does not reach the lowered instance";
        expectOneInstancePerDigest(name, in);
    }
    for (const auto &[name, mutate] : unread) {
        LoweringInputs in = base;
        mutate(in);
        EXPECT_EQ(in.fingerprint(), base_fingerprint) << name;
        expectOneInstancePerDigest(name, in);
    }

    // The sweep-constant part and the SoC part combine as one digest,
    // and the fig7 space maps digests to instances one to one.
    const workload::Workload rodinia = makeWorkload(Variant::Default);
    const std::vector<arch::SocConfig> space = arch::enumerateDesignSpace(
        arch::DesignSpace{}, workload::dsaPriorityOrder());
    std::map<uint64_t, uint64_t> by_digest;
    std::map<uint64_t, uint64_t> by_fingerprint;
    for (double budget_w : {600.0, 100.0, 50.0}) {
        arch::Constraints constraints;
        constraints.powerBudgetW = budget_w;
        const uint64_t inputs = loweringDigest(rodinia, constraints);
        for (const arch::SocConfig &config : space) {
            const uint64_t digest = loweringDigest(inputs, config);
            const uint64_t fingerprint =
                buildProblem(rodinia, config, constraints).fingerprint();
            EXPECT_TRUE(by_digest.emplace(digest, fingerprint).second)
                << config.name() << " at " << budget_w << " W";
            EXPECT_TRUE(by_fingerprint.emplace(fingerprint, digest).second)
                << config.name() << " at " << budget_w << " W";
        }
    }
    EXPECT_EQ(by_digest.size(), 3 * space.size());
}

} // anonymous namespace
} // namespace hilp
