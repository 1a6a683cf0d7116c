/** @file Unit tests for Pareto extraction, classification, and the
 * design-space explorer. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "arch/design_space.hh"
#include "arch/dvfs.hh"
#include "dse/checkpoint.hh"
#include "dse/explore.hh"
#include "dse/pareto.hh"
#include "hilp/builder.hh"
#include "hilp/options.hh"
#include "workload/rodinia.hh"

namespace hilp {
namespace dse {
namespace {

TEST(Pareto, SimpleFront)
{
    // (cost, value): (1,1) (2,3) (3,2) (4,4).
    std::vector<double> cost = {1, 2, 3, 4};
    std::vector<double> value = {1, 3, 2, 4};
    auto front = paretoFront(cost, value);
    EXPECT_EQ(front, (std::vector<size_t>{0, 1, 3}));
}

TEST(Pareto, DominatedPointExcluded)
{
    std::vector<double> cost = {1, 2};
    std::vector<double> value = {5, 4}; // more cost, less value.
    auto front = paretoFront(cost, value);
    EXPECT_EQ(front, (std::vector<size_t>{0}));
}

TEST(Pareto, EqualCostKeepsBestValue)
{
    std::vector<double> cost = {1, 1, 2};
    std::vector<double> value = {2, 3, 4};
    auto front = paretoFront(cost, value);
    EXPECT_EQ(front, (std::vector<size_t>{1, 2}));
}

TEST(Pareto, EmptyInput)
{
    EXPECT_TRUE(paretoFront({}, {}).empty());
}

TEST(Pareto, SinglePoint)
{
    auto front = paretoFront({1.0}, {1.0});
    EXPECT_EQ(front, (std::vector<size_t>{0}));
}

TEST(Pareto, FrontIsSortedByCost)
{
    std::vector<double> cost = {5, 1, 3, 2, 4};
    std::vector<double> value = {9, 1, 5, 3, 7};
    auto front = paretoFront(cost, value);
    for (size_t i = 1; i < front.size(); ++i)
        EXPECT_LE(cost[front[i - 1]], cost[front[i]]);
}

TEST(Classify, GpuDominated)
{
    arch::SocConfig config;
    config.cpuCores = 1;
    config.gpuSms = 64;
    config.dsas = {{1, 0}};
    EXPECT_EQ(classifyAccelMix(config), AccelMix::GpuDominated);
}

TEST(Classify, DsaDominated)
{
    arch::SocConfig config;
    config.cpuCores = 1;
    config.gpuSms = 0;
    config.dsas = {{16, 0}, {16, 1}};
    EXPECT_EQ(classifyAccelMix(config), AccelMix::DsaDominated);
}

TEST(Classify, Mixed)
{
    arch::SocConfig config;
    config.cpuCores = 1;
    config.gpuSms = 16;
    config.dsas = {{16, 0}};
    EXPECT_EQ(classifyAccelMix(config), AccelMix::Mixed);
}

TEST(Classify, NoAccelerators)
{
    arch::SocConfig config;
    config.cpuCores = 4;
    EXPECT_EQ(classifyAccelMix(config), AccelMix::None);
}

TEST(Classify, SeventyFivePercentBoundary)
{
    // GPU 60 SMs vs DSA 20 PEs: GPU share 75% exactly -> Mixed.
    arch::SocConfig config;
    config.cpuCores = 1;
    config.gpuSms = 60;
    config.dsas = {{20, 0}};
    EXPECT_EQ(classifyAccelMix(config), AccelMix::Mixed);
    // 61/81: just over -> GpuDominated... (61/81 = 0.753).
    config.gpuSms = 61;
    config.dsas = {{20, 0}};
    EXPECT_EQ(classifyAccelMix(config), AccelMix::GpuDominated);
}

TEST(Classify, Names)
{
    EXPECT_STREQ(toString(AccelMix::None), "none");
    EXPECT_STREQ(toString(AccelMix::GpuDominated), "gpu");
    EXPECT_STREQ(toString(AccelMix::DsaDominated), "dsa");
    EXPECT_STREQ(toString(AccelMix::Mixed), "mixed");
}

TEST(Explore, ModelNames)
{
    EXPECT_STREQ(toString(ModelKind::MultiAmdahl), "MA");
    EXPECT_STREQ(toString(ModelKind::Hilp), "HILP");
    EXPECT_STREQ(toString(ModelKind::Gables), "Gables");
}

TEST(Explore, HomogeneousSocUnderMaHasUnitSpeedup)
{
    // MA on the 1-CPU SoC is exactly the sequential reference.
    arch::SocConfig config;
    config.cpuCores = 1;
    DseOptions options;
    DsePoint point = evaluatePoint(
        config, workload::makeWorkload(workload::Variant::Default),
        arch::Constraints{}, ModelKind::MultiAmdahl, options);
    ASSERT_TRUE(point.ok);
    EXPECT_NEAR(point.speedup, 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(point.averageWlp, 1.0);
    EXPECT_EQ(point.mix, AccelMix::None);
}

TEST(Explore, MaIsInsensitiveToCpuCount)
{
    // MA executes sequentially: extra CPU cores change nothing.
    auto wl = workload::makeWorkload(workload::Variant::Default);
    DseOptions options;
    arch::SocConfig one;
    one.cpuCores = 1;
    one.gpuSms = 64;
    arch::SocConfig four;
    four.cpuCores = 4;
    four.gpuSms = 64;
    DsePoint p1 = evaluatePoint(one, wl, arch::Constraints{},
                                ModelKind::MultiAmdahl, options);
    DsePoint p4 = evaluatePoint(four, wl, arch::Constraints{},
                                ModelKind::MultiAmdahl, options);
    ASSERT_TRUE(p1.ok && p4.ok);
    EXPECT_NEAR(p1.makespanS, p4.makespanS, 1e-6);
}

TEST(Explore, SpaceEvaluationMatchesPointEvaluation)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    std::vector<arch::SocConfig> configs;
    for (int cpus : {1, 2}) {
        arch::SocConfig c;
        c.cpuCores = cpus;
        c.gpuSms = 16;
        configs.push_back(c);
    }
    DseOptions options;
    options.threads = 2;
    auto points = exploreSpace(configs, wl, arch::Constraints{},
                               ModelKind::MultiAmdahl, options);
    ASSERT_EQ(points.size(), 2u);
    for (size_t i = 0; i < configs.size(); ++i) {
        DsePoint reference =
            evaluatePoint(configs[i], wl, arch::Constraints{},
                          ModelKind::MultiAmdahl, options);
        EXPECT_NEAR(points[i].makespanS, reference.makespanS, 1e-9);
        EXPECT_NEAR(points[i].areaMm2, reference.areaMm2, 1e-9);
    }
}

TEST(Explore, UnschedulableConfigReportsNotOk)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    arch::Constraints constraints;
    constraints.powerBudgetW = 5.0; // Below one CPU core's 7 W.
    arch::SocConfig config;
    config.cpuCores = 1;
    DseOptions options;
    DsePoint point = evaluatePoint(config, wl, constraints,
                                   ModelKind::Hilp, options);
    EXPECT_FALSE(point.ok);
    EXPECT_DOUBLE_EQ(point.speedup, 0.0);
    // The silent-drop bug: the reason must be reported, not lost.
    EXPECT_FALSE(point.note.empty());
    EXPECT_EQ(point.status, cp::SolveStatus::NoSolution);
}

/** A small but non-trivial HILP design space: two warm-start chains. */
std::vector<arch::SocConfig>
smallHilpSpace()
{
    std::vector<arch::SocConfig> configs;
    for (int cpus : {2, 4}) {
        for (int sms : {4, 16, 64}) {
            arch::SocConfig c;
            c.cpuCores = cpus;
            c.gpuSms = sms;
            configs.push_back(c);
        }
    }
    return configs;
}

DseOptions
fastHilpOptions()
{
    DseOptions options;
    options.engine.solver.maxSeconds = 2.0;
    options.threads = 2;
    return options;
}

TEST(Explore, ReuseMatchesColdStartResults)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    auto configs = smallHilpSpace();

    DseOptions cold = fastHilpOptions();
    cold.reuse = false;
    auto cold_points = exploreSpace(configs, wl, arch::Constraints{},
                                    ModelKind::Hilp, cold);

    DseOptions warm = fastHilpOptions();
    auto warm_points = exploreSpace(configs, wl, arch::Constraints{},
                                    ModelKind::Hilp, warm);

    ASSERT_EQ(cold_points.size(), warm_points.size());
    for (size_t i = 0; i < cold_points.size(); ++i) {
        ASSERT_EQ(cold_points[i].ok, warm_points[i].ok) << i;
        if (!cold_points[i].ok)
            continue;
        // Reuse changes solver effort, never certified quality: both
        // runs must agree within their certified optimality gaps.
        double tolerance = cold_points[i].makespanS *
            (cold_points[i].gap + warm_points[i].gap + 1e-9);
        EXPECT_NEAR(warm_points[i].makespanS,
                    cold_points[i].makespanS, tolerance) << i;
    }
}

TEST(Explore, ReuseChainsWarmStartLargerGpus)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    auto configs = smallHilpSpace();
    auto points = exploreSpace(configs, wl, arch::Constraints{},
                               ModelKind::Hilp, fastHilpOptions());
    // The first config of each (cpu) chain solves cold; at least one
    // larger-GPU neighbor must have accepted the transferred hint.
    int warm_started = 0;
    for (const DsePoint &point : points)
        warm_started += point.warmStarted ? 1 : 0;
    EXPECT_GT(warm_started, 0);
}

TEST(Explore, SharedMemoServesRepeatSweep)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    auto configs = smallHilpSpace();
    SolveMemo memo;
    DseOptions options = fastHilpOptions();
    options.memo = &memo;

    auto first = exploreSpace(configs, wl, arch::Constraints{},
                              ModelKind::Hilp, options);
    auto second = exploreSpace(configs, wl, arch::Constraints{},
                               ModelKind::Hilp, options);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < second.size(); ++i) {
        EXPECT_TRUE(second[i].cacheHit) << i;
        EXPECT_EQ(second[i].solves, 0) << i;
        EXPECT_DOUBLE_EQ(second[i].makespanS, first[i].makespanS) << i;
    }
}

TEST(Dse, SweepMemoIsKeyedByEachPointsFingerprint)
{
    // The sweep hands each point's fingerprint to the engine: a
    // wrong key would file one point's result under another's.
    auto wl = workload::makeWorkload(workload::Variant::Default);
    auto configs = smallHilpSpace();
    SolveMemo memo;
    DseOptions options = fastHilpOptions();
    ASSERT_TRUE(options.reuse);
    options.memo = &memo;
    auto points = exploreSpace(configs, wl, arch::Constraints{},
                               ModelKind::Hilp, options);

    const uint64_t salt = engineOptionsDigest(options.engine);
    int ok = 0;
    for (const DsePoint &point : points) {
        if (!point.ok)
            continue;
        ++ok;
        EXPECT_EQ(point.fingerprint,
                  buildProblem(wl, point.config, arch::Constraints{},
                               options.build)
                      .fingerprint())
            << point.config.name();
        EvalResult cached;
        ASSERT_TRUE(memo.lookup(point.fingerprint, salt, &cached))
            << point.config.name();
        EXPECT_EQ(cached.makespanS, point.makespanS)
            << point.config.name();
    }
    EXPECT_EQ(ok, static_cast<int>(configs.size()));
}

/**
 * Three similarity chains of the Figure 7 space, 12 configs, under
 * the node-budgeted options of perfbench's explore workload. A
 * sweep-wide dominance bound pruned (c4,g4,d8^4) and (c4,g16,d8^4)
 * here, even on one thread: a cheaper point of another chain beat
 * their continuous lower bounds.
 */
std::vector<arch::SocConfig>
threeChainSlice()
{
    const std::vector<std::string> names = {
        "(c2,g0,d10^4)", "(c2,g4,d10^4)", "(c2,g16,d10^4)",
        "(c2,g64,d10^4)", "(c4,g0,d2^16)", "(c4,g4,d2^16)",
        "(c4,g16,d2^16)", "(c4,g64,d2^16)", "(c4,g0,d8^4)",
        "(c4,g4,d8^4)", "(c4,g16,d8^4)", "(c4,g64,d8^4)"};
    std::vector<arch::SocConfig> space = arch::enumerateDesignSpace(
        arch::DesignSpace{}, workload::dsaPriorityOrder());
    std::vector<arch::SocConfig> slice;
    for (const std::string &name : names)
        for (const arch::SocConfig &config : space)
            if (config.name() == name)
                slice.push_back(config);
    return slice;
}

DseOptions
nodeBudgetedOptions(int threads)
{
    DseOptions options;
    options.engine.solver.maxNodes = 4000;
    options.engine.solver.maxSeconds = 120.0;
    options.engine.solver.threads = 1;
    options.threads = threads;
    return options;
}

/** Solver effort and pruning as a sweep reports them. */
std::vector<std::tuple<int, int64_t, bool, double>>
effort(const std::vector<DsePoint> &points)
{
    std::vector<std::tuple<int, int64_t, bool, double>> out;
    for (const DsePoint &point : points)
        out.emplace_back(point.solves, point.nodes, point.pruned,
                         point.makespanS);
    return out;
}

TEST(Explore, DominancePruningStaysWithinAChain)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    std::vector<arch::SocConfig> configs = threeChainSlice();
    ASSERT_EQ(configs.size(), 12u);
    auto points = exploreSpace(configs, wl, arch::Constraints{},
                               ModelKind::Hilp, nodeBudgetedOptions(1));
    ASSERT_EQ(points.size(), configs.size());

    // Each point is what a sweep of its own chain alone gives: no
    // other chain's points reach its dominance check.
    for (size_t first = 0; first < configs.size(); first += 4) {
        std::vector<arch::SocConfig> chain(configs.begin() + first,
                                           configs.begin() + first + 4);
        auto alone = exploreSpace(chain, wl, arch::Constraints{},
                                  ModelKind::Hilp, nodeBudgetedOptions(1));
        for (size_t i = 0; i < chain.size(); ++i) {
            const DsePoint &point = points[first + i];
            ASSERT_TRUE(point.ok) << point.config.name();
            EXPECT_EQ(point.pruned, alone[i].pruned) << point.config.name();
            EXPECT_EQ(point.solves, alone[i].solves) << point.config.name();
            EXPECT_EQ(point.nodes, alone[i].nodes) << point.config.name();
            EXPECT_EQ(point.makespanS, alone[i].makespanS)
                << point.config.name();
        }
    }
    EXPECT_FALSE(points[9].pruned) << points[9].config.name();
    EXPECT_FALSE(points[10].pruned) << points[10].config.name();
}

TEST(Explore, ParallelSweepsPruneAndSolveAlike)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    std::vector<arch::SocConfig> configs = threeChainSlice();
    auto reference = effort(exploreSpace(configs, wl, arch::Constraints{},
                                         ModelKind::Hilp,
                                         nodeBudgetedOptions(1)));
    // Four sweep threads run the three chains concurrently, in
    // whatever order; every repeat reports the one-thread sweep's
    // solves, nodes, pruned flags and makespans, point by point.
    for (int repeat = 0; repeat < 5; ++repeat) {
        auto parallel = effort(exploreSpace(configs, wl,
                                            arch::Constraints{},
                                            ModelKind::Hilp,
                                            nodeBudgetedOptions(4)));
        EXPECT_EQ(parallel, reference) << "repeat " << repeat;
    }
}

TEST(Explore, OneWorkerSweepRunsOnTheCallersThread)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    std::vector<arch::SocConfig> configs = threeChainSlice();
    const auto threaded = effort(exploreSpace(configs, wl,
                                              arch::Constraints{},
                                              ModelKind::Hilp,
                                              nodeBudgetedOptions(3)));

    // One sweep thread, and one chain (the slice's first four
    // configs) under four threads: neither starts a helper thread,
    // and both return what the three-thread sweep does.
    for (const auto &[count, threads] :
         {std::pair<size_t, int>{configs.size(), 1}, {4, 4}}) {
        std::vector<arch::SocConfig> sweep(
            configs.begin(), configs.begin() + static_cast<ptrdiff_t>(count));
        std::mutex mutex;
        std::vector<std::thread::id> callers;
        auto points = exploreSpace(
            sweep, wl, arch::Constraints{}, ModelKind::Hilp,
            nodeBudgetedOptions(threads),
            [&](const DsePoint &, const Schedule *) {
                std::lock_guard<std::mutex> lock(mutex);
                callers.push_back(std::this_thread::get_id());
            });
        ASSERT_EQ(callers.size(), count);
        for (const std::thread::id &id : callers)
            EXPECT_EQ(id, std::this_thread::get_id());
        EXPECT_EQ(effort(points),
                  decltype(threaded)(threaded.begin(),
                                     threaded.begin() +
                                         static_cast<ptrdiff_t>(count)));
    }
}

/** The records a sweep streams, as their bytes. */
std::vector<std::string>
recordBytes(const std::vector<DsePoint> &points)
{
    std::vector<std::string> records;
    for (const DsePoint &point : points)
        records.push_back(
            pointRecordJson(point.fingerprint, ModelKind::Hilp, point)
                .dump());
    return records;
}

TEST(Dse, WarmSweepServesEveryPointThroughTheLoweringIndex)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    std::vector<arch::SocConfig> configs = threeChainSlice();
    const int64_t n = static_cast<int64_t>(configs.size());
    SolveMemo memo;
    DseOptions options = nodeBudgetedOptions(1);
    options.memo = &memo;

    // The cold sweep spells out every clock: its instances are the
    // default options' instances, under other lowering digests.
    DseOptions spelled = options;
    for (const arch::GpuOperatingPoint &point :
         arch::gpuOperatingPoints())
        spelled.build.clocksMhz.push_back(point.clockMhz);
    auto cold = exploreSpace(configs, wl, arch::Constraints{},
                             ModelKind::Hilp, spelled);
    EXPECT_EQ(memo.hits(), 0);
    EXPECT_EQ(memo.misses(), n);

    // The default options' digests name no instance yet: each point
    // is lowered, served from the memo, and its digest recorded.
    const uint64_t inputs = loweringDigest(wl, arch::Constraints{});
    for (const arch::SocConfig &config : configs)
        EXPECT_EQ(memo.loweredInstance(loweringDigest(inputs, config)),
                  std::nullopt)
            << config.name();
    auto by_lowering = exploreSpace(configs, wl, arch::Constraints{},
                                    ModelKind::Hilp, options);
    EXPECT_EQ(memo.hits(), n);
    EXPECT_EQ(memo.misses(), n);
    for (size_t i = 0; i < configs.size(); ++i)
        EXPECT_EQ(memo.loweredInstance(loweringDigest(inputs, configs[i])),
                  cold[i].fingerprint)
            << configs[i].name();

    // Now every digest names its instance, and a point served through
    // the index streams the bytes a lowered point does.
    auto by_index = exploreSpace(configs, wl, arch::Constraints{},
                                 ModelKind::Hilp, options);
    EXPECT_EQ(memo.hits(), 2 * n);
    EXPECT_EQ(memo.misses(), n);
    for (size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(by_index[i].fingerprint, cold[i].fingerprint);
        EXPECT_TRUE(by_lowering[i].ok && by_lowering[i].cacheHit)
            << configs[i].name();
        EXPECT_TRUE(by_index[i].ok && by_index[i].cacheHit)
            << configs[i].name();
    }
    EXPECT_EQ(recordBytes(by_index), recordBytes(by_lowering));
}

TEST(Dse, SharedInstanceIsServedAcrossDsaAdvantages)
{
    // A config without DSAs lowers to one instance at every DSA
    // advantage, under a digest per advantage: fig8b's re-sweeps at
    // 4x and 8x. The memo serves it by its fingerprint, and the new
    // digest is recorded against the instance.
    auto wl = workload::makeWorkload(workload::Variant::Default);
    auto dsaFree = [](double advantage) {
        arch::DesignSpace space;
        space.dsaAdvantage = advantage;
        std::vector<arch::SocConfig> slice;
        for (const arch::SocConfig &config : arch::enumerateDesignSpace(
                 space, workload::dsaPriorityOrder()))
            if (config.dsas.empty())
                slice.push_back(config);
        return slice;
    };
    const std::vector<arch::SocConfig> at2 = dsaFree(2.0);
    const std::vector<arch::SocConfig> at4 = dsaFree(4.0);
    ASSERT_EQ(at2.size(), 12u);
    ASSERT_EQ(at4.size(), at2.size());
    const int64_t n = static_cast<int64_t>(at2.size());
    SolveMemo memo;
    DseOptions options = nodeBudgetedOptions(1);
    options.memo = &memo;

    auto first = exploreSpace(at2, wl, arch::Constraints{},
                              ModelKind::Hilp, options);
    EXPECT_EQ(memo.hits(), 0);
    EXPECT_EQ(memo.misses(), n);
    auto second = exploreSpace(at4, wl, arch::Constraints{},
                               ModelKind::Hilp, options);
    EXPECT_EQ(memo.hits(), n);
    EXPECT_EQ(memo.misses(), n);

    const uint64_t inputs = loweringDigest(wl, arch::Constraints{});
    for (size_t i = 0; i < at2.size(); ++i) {
        ASSERT_EQ(at4[i].name(), at2[i].name());
        const uint64_t digest = loweringDigest(inputs, at4[i]);
        EXPECT_NE(digest, loweringDigest(inputs, at2[i]))
            << at4[i].name();
        EXPECT_EQ(second[i].fingerprint, first[i].fingerprint)
            << at4[i].name();
        EXPECT_TRUE(second[i].cacheHit) << at4[i].name();
        EXPECT_EQ(second[i].solves, 0) << at4[i].name();
        EXPECT_EQ(second[i].ok, first[i].ok) << at4[i].name();
        EXPECT_EQ(memo.loweredInstance(digest), first[i].fingerprint)
            << at4[i].name();
    }
}

/** A checkpoint path under gtest's temp dir, removed afterwards. */
class IndexedCheckpoint : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "hilp_indexed_checkpoint.jsonl";
        std::remove(path_.c_str());
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    std::string path_;
};

TEST_F(IndexedCheckpoint, ResumeAndFaultsComeBeforeTheMemo)
{
    // A point served through the index meets the checkpoint and the
    // injected fault where a lowered point does: resumed points count
    // no memo lookup, and a fault preempts the memo.
    auto wl = workload::makeWorkload(workload::Variant::Default);
    std::vector<arch::SocConfig> configs = threeChainSlice();
    const int64_t n = static_cast<int64_t>(configs.size());
    SolveMemo memo;
    DseOptions options = nodeBudgetedOptions(1);
    options.memo = &memo;
    {
        SweepCheckpoint checkpoint;
        ASSERT_TRUE(checkpoint.open(path_, false));
        options.checkpoint = &checkpoint;
        exploreSpace(configs, wl, arch::Constraints{}, ModelKind::Hilp,
                     options);
    }
    ASSERT_EQ(memo.misses(), n);

    SweepCheckpoint resumed;
    ASSERT_TRUE(resumed.open(path_, true));
    options.checkpoint = &resumed;
    auto points = exploreSpace(configs, wl, arch::Constraints{},
                               ModelKind::Hilp, options);
    for (const DsePoint &point : points)
        EXPECT_TRUE(point.resumed) << point.config.name();
    EXPECT_EQ(memo.hits(), 0);
    EXPECT_EQ(memo.misses(), n);

    options.checkpoint = nullptr;
    const std::string poisoned = configs[5].name();
    options.injectFault = [&poisoned](const arch::SocConfig &config) {
        if (config.name() == poisoned)
            throw std::runtime_error("injected");
    };
    points = exploreSpace(configs, wl, arch::Constraints{},
                          ModelKind::Hilp, options);
    for (const DsePoint &point : points) {
        EXPECT_EQ(point.errored, point.config.name() == poisoned)
            << point.config.name();
        EXPECT_EQ(point.cacheHit, point.config.name() != poisoned)
            << point.config.name();
    }
    EXPECT_EQ(memo.hits(), n - 1);
    EXPECT_EQ(memo.misses(), n);
}

TEST(Explore, SolverTelemetryIsPopulated)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    arch::SocConfig config;
    config.cpuCores = 2;
    config.gpuSms = 16;
    DsePoint point = evaluatePoint(config, wl, arch::Constraints{},
                                   ModelKind::Hilp, fastHilpOptions());
    ASSERT_TRUE(point.ok);
    EXPECT_GT(point.solves, 0);
    EXPECT_GT(point.nodes, 0);
    EXPECT_GE(point.solveSeconds, 0.0);
    EXPECT_TRUE(point.note.empty());
}

TEST(Explore, FaultIsolationKeepsSweepAlive)
{
    // One poisoned config throws on every attempt (including the
    // reduced-budget retry); the sweep must record it as errored and
    // still complete every other point. MA keeps the test fast.
    auto wl = workload::makeWorkload(workload::Variant::Default);
    std::vector<arch::SocConfig> configs;
    for (int cpus : {1, 2, 4}) {
        arch::SocConfig c;
        c.cpuCores = cpus;
        configs.push_back(c);
    }
    DseOptions options;
    options.threads = 2;
    options.injectFault = [](const arch::SocConfig &config) {
        if (config.cpuCores == 2)
            throw std::runtime_error("injected solver crash");
    };
    auto points = exploreSpace(configs, wl, arch::Constraints{},
                               ModelKind::MultiAmdahl, options);
    ASSERT_EQ(points.size(), 3u);
    EXPECT_TRUE(points[0].ok);
    EXPECT_TRUE(points[2].ok);
    EXPECT_FALSE(points[1].ok);
    EXPECT_TRUE(points[1].errored);
    EXPECT_NE(points[1].note.find("injected solver crash"),
              std::string::npos);
    // The failed slot keeps its structural identity for the report.
    EXPECT_EQ(points[1].config.cpuCores, 2);
    EXPECT_GT(points[1].areaMm2, 0.0);
}

TEST(Explore, TransientFaultIsRetriedOnce)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    std::vector<arch::SocConfig> configs(1);
    configs[0].cpuCores = 1;
    std::atomic<int> attempts{0};
    DseOptions options;
    options.injectFault = [&attempts](const arch::SocConfig &) {
        if (attempts.fetch_add(1) == 0)
            throw std::runtime_error("transient failure");
    };
    auto points = exploreSpace(configs, wl, arch::Constraints{},
                               ModelKind::MultiAmdahl, options);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_TRUE(points[0].ok);
    EXPECT_FALSE(points[0].errored);
    EXPECT_EQ(attempts.load(), 2);
}

TEST(Explore, EvaluatePointIsolatesFaultsLikeTheSweep)
{
    // The public per-point entry is the sweep's own step: a transient
    // fault is retried, and a persistent one comes back as an
    // errored point instead of an exception.
    auto wl = workload::makeWorkload(workload::Variant::Default);
    arch::SocConfig config;
    config.cpuCores = 2;
    config.gpuSms = 4;
    DseOptions options = fastHilpOptions();
    std::atomic<int> attempts{0};
    options.injectFault = [&attempts](const arch::SocConfig &) {
        if (attempts.fetch_add(1) == 0)
            throw std::runtime_error("transient failure");
    };
    DsePoint point = evaluatePoint(config, wl, arch::Constraints{},
                                   ModelKind::Hilp, options);
    EXPECT_TRUE(point.ok);
    EXPECT_FALSE(point.errored);
    EXPECT_GT(point.makespanS, 0.0);
    EXPECT_EQ(attempts.load(), 2);

    options.injectFault = [](const arch::SocConfig &) {
        throw std::runtime_error("persistent failure");
    };
    DsePoint failed;
    ASSERT_NO_THROW(failed = evaluatePoint(config, wl,
                                           arch::Constraints{},
                                           ModelKind::Hilp, options));
    EXPECT_FALSE(failed.ok);
    EXPECT_TRUE(failed.errored);
    EXPECT_NE(failed.note.find("persistent failure"),
              std::string::npos);
    EXPECT_EQ(failed.config.name(), config.name());
    EXPECT_DOUBLE_EQ(failed.areaMm2, config.areaMm2());
}

TEST(Explore, HilpChainsIsolateFaultsToo)
{
    // With reuse on, a fault inside one similarity chain must not
    // poison the rest of that chain or the other chains.
    auto wl = workload::makeWorkload(workload::Variant::Default);
    auto configs = smallHilpSpace();
    DseOptions options = fastHilpOptions();
    options.injectFault = [](const arch::SocConfig &config) {
        if (config.cpuCores == 4 && config.gpuSms == 16)
            throw std::runtime_error("chain fault");
    };
    auto points = exploreSpace(configs, wl, arch::Constraints{},
                               ModelKind::Hilp, options);
    ASSERT_EQ(points.size(), configs.size());
    int ok = 0, errored = 0;
    for (const DsePoint &point : points) {
        ok += point.ok ? 1 : 0;
        errored += point.errored ? 1 : 0;
    }
    EXPECT_EQ(errored, 1);
    EXPECT_EQ(ok, static_cast<int>(points.size()) - 1);
}

} // anonymous namespace
} // namespace dse
} // namespace hilp
