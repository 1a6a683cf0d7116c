/** @file Tests for sweep checkpointing and resume. */

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "dse/checkpoint.hh"
#include "dse/distribute.hh"
#include "dse/explore.hh"
#include "hilp/builder.hh"
#include "sim/replay.hh"
#include "workload/rodinia.hh"

namespace hilp {
namespace dse {
namespace {

/** A unique path under gtest's temp dir, removed by the fixture. */
class Checkpoint : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = ::testing::TempDir() + "hilp_checkpoint_" +
                info->name() + ".jsonl";
        std::remove(path_.c_str());
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    std::string path_;
};

DsePoint
samplePoint(double makespan_s)
{
    DsePoint point;
    point.ok = true;
    point.fingerprint = 0xdeadbeefcafef00dull;
    point.makespanS = makespan_s;
    point.speedup = 10.0 / makespan_s;
    point.gap = 0.07;
    point.averageWlp = 2.5;
    point.status = cp::SolveStatus::NearOptimal;
    point.nodes = 4242;
    point.backtracks = 99;
    point.solves = 3;
    point.solveSeconds = 1.25;
    point.warmStarted = true;
    point.degraded = true;
    return point;
}

TEST_F(Checkpoint, KeySeparatesModelsConfigsAndInstances)
{
    uint64_t base = checkpointKey(1, "(c1,g0,d0^0)", ModelKind::Hilp);
    EXPECT_NE(base, checkpointKey(2, "(c1,g0,d0^0)", ModelKind::Hilp));
    EXPECT_NE(base, checkpointKey(1, "(c2,g0,d0^0)", ModelKind::Hilp));
    // MA/Gables/HILP share lowered specs, so the kind must be part
    // of the identity or a resumed MA sweep would serve HILP points.
    EXPECT_NE(base,
              checkpointKey(1, "(c1,g0,d0^0)", ModelKind::MultiAmdahl));
    EXPECT_NE(base, checkpointKey(1, "(c1,g0,d0^0)", ModelKind::Gables));
}

TEST_F(Checkpoint, RecordsRoundTripThroughResume)
{
    DsePoint written = samplePoint(2.0);
    DsePoint failed;
    failed.ok = false;
    failed.status = cp::SolveStatus::NoSolution;
    failed.note = "unschedulable under budget";

    {
        SweepCheckpoint checkpoint;
        ASSERT_TRUE(checkpoint.open(path_, false));
        checkpoint.record(11, ModelKind::Hilp, written);
        checkpoint.record(22, ModelKind::Hilp, failed);
    }

    SweepCheckpoint resumed;
    std::string error;
    ASSERT_TRUE(resumed.open(path_, true, &error)) << error;
    EXPECT_EQ(resumed.loaded(), 2u);

    DsePoint restored;
    ASSERT_TRUE(resumed.lookup(11, &restored));
    EXPECT_TRUE(restored.resumed);
    EXPECT_TRUE(restored.ok);
    EXPECT_EQ(restored.fingerprint, written.fingerprint);
    EXPECT_DOUBLE_EQ(restored.makespanS, written.makespanS);
    EXPECT_DOUBLE_EQ(restored.speedup, written.speedup);
    EXPECT_DOUBLE_EQ(restored.gap, written.gap);
    EXPECT_DOUBLE_EQ(restored.averageWlp, written.averageWlp);
    EXPECT_EQ(restored.status, written.status);
    EXPECT_EQ(restored.nodes, written.nodes);
    EXPECT_EQ(restored.backtracks, written.backtracks);
    EXPECT_EQ(restored.solves, written.solves);
    EXPECT_DOUBLE_EQ(restored.solveSeconds, written.solveSeconds);
    EXPECT_TRUE(restored.warmStarted);
    EXPECT_TRUE(restored.degraded);

    ASSERT_TRUE(resumed.lookup(22, &restored));
    EXPECT_FALSE(restored.ok);
    EXPECT_TRUE(restored.resumed);
    EXPECT_EQ(restored.note, "unschedulable under budget");
    EXPECT_FALSE(resumed.lookup(33, &restored));
}

Schedule
sampleSchedule()
{
    Schedule schedule;
    schedule.stepS = 2.0;
    schedule.cpuCores = 4.0;
    schedule.deviceNames = {"GPU", "DSA.KM"};
    ScheduledPhase a;
    a.app = 0;
    a.phase = 1;
    a.name = "HS.compute";
    a.option = 2;
    a.unitLabel = "GPU@765";
    a.device = 0;
    a.startStep = 3;
    a.durationSteps = 5;
    a.startS = 6.0;
    a.durationS = 10.0;
    a.powerW = 12.5;
    a.bwGBs = 3.25;
    a.cpuCores = 0.5;
    schedule.phases.push_back(a);
    ScheduledPhase b;
    b.app = 1;
    b.phase = 0;
    b.name = "KM.assign";
    b.option = 0;
    b.unitLabel = "DSA.KM";
    b.device = 1;
    b.startStep = 0;
    b.durationSteps = 2;
    b.startS = 0.0;
    b.durationS = 4.0;
    b.powerW = 2.0;
    b.bwGBs = 1.0;
    b.cpuCores = 0.0;
    schedule.phases.push_back(b);
    return schedule;
}

TEST_F(Checkpoint, ScheduleRoundTripsThroughResume)
{
    Schedule schedule = sampleSchedule();
    {
        SweepCheckpoint checkpoint;
        ASSERT_TRUE(checkpoint.open(path_, false));
        checkpoint.record(11, ModelKind::Hilp, samplePoint(2.0),
                          &schedule);
        // The analytic models record without a schedule.
        checkpoint.record(22, ModelKind::MultiAmdahl,
                          samplePoint(3.0));
    }

    SweepCheckpoint resumed;
    ASSERT_TRUE(resumed.open(path_, true));
    EXPECT_EQ(resumed.loaded(), 2u);

    Schedule restored;
    ASSERT_TRUE(resumed.lookupSchedule(11, &restored));
    EXPECT_DOUBLE_EQ(restored.stepS, schedule.stepS);
    EXPECT_DOUBLE_EQ(restored.cpuCores, schedule.cpuCores);
    ASSERT_EQ(restored.deviceNames, schedule.deviceNames);
    ASSERT_EQ(restored.phases.size(), schedule.phases.size());
    for (size_t i = 0; i < schedule.phases.size(); ++i) {
        const ScheduledPhase &want = schedule.phases[i];
        const ScheduledPhase &got = restored.phases[i];
        EXPECT_EQ(got.app, want.app) << i;
        EXPECT_EQ(got.phase, want.phase) << i;
        EXPECT_EQ(got.name, want.name) << i;
        EXPECT_EQ(got.option, want.option) << i;
        EXPECT_EQ(got.unitLabel, want.unitLabel) << i;
        EXPECT_EQ(got.device, want.device) << i;
        EXPECT_EQ(got.startStep, want.startStep) << i;
        EXPECT_EQ(got.durationSteps, want.durationSteps) << i;
        EXPECT_DOUBLE_EQ(got.startS, want.startS) << i;
        EXPECT_DOUBLE_EQ(got.durationS, want.durationS) << i;
        EXPECT_DOUBLE_EQ(got.powerW, want.powerW) << i;
        EXPECT_DOUBLE_EQ(got.bwGBs, want.bwGBs) << i;
        EXPECT_DOUBLE_EQ(got.cpuCores, want.cpuCores) << i;
    }

    // The schedule-less record resumes fine but serves no schedule,
    // and the restored point itself is unaffected either way.
    EXPECT_FALSE(resumed.lookupSchedule(22, &restored));
    DsePoint point;
    ASSERT_TRUE(resumed.lookup(11, &point));
    EXPECT_DOUBLE_EQ(point.makespanS, 2.0);
    ASSERT_TRUE(resumed.lookup(22, &point));
    EXPECT_DOUBLE_EQ(point.makespanS, 3.0);
}

TEST_F(Checkpoint, MalformedScheduleDegradesToNoSchedule)
{
    {
        SweepCheckpoint checkpoint;
        ASSERT_TRUE(checkpoint.open(path_, false));
        checkpoint.record(1, ModelKind::Hilp, samplePoint(1.0));
    }
    // A hand-damaged record whose schedule member is garbage: the
    // point must still resume (losing the warm start costs effort,
    // not correctness), the schedule lookup must miss.
    std::FILE *file = std::fopen(path_.c_str(), "a");
    ASSERT_NE(file, nullptr);
    std::fputs("{\"key\":\"0000000000000002\",\"kind\":\"HILP\","
               "\"ok\":true,\"makespan_s\":4.0,"
               "\"schedule\":{\"phases\":[[1,2]]}}\n", file);
    // Integer columns (here the start step, then the app) that are
    // not integers, or do not fit an int, damage the schedule too.
    std::fputs("{\"key\":\"0000000000000003\",\"ok\":true,"
               "\"schedule\":{\"phases\":[[0,1,\"a\",2,\"GPU\",0,"
               "2.5,5,6,10,12.5,3.25,0.5]]}}\n", file);
    std::fputs("{\"key\":\"0000000000000004\",\"ok\":true,"
               "\"schedule\":{\"phases\":[[4294967298,1,\"a\",2,"
               "\"GPU\",0,3,5,6,10,12.5,3.25,0.5]]}}\n", file);
    std::fclose(file);

    SweepCheckpoint resumed;
    ASSERT_TRUE(resumed.open(path_, true));
    EXPECT_EQ(resumed.loaded(), 4u);
    for (uint64_t key : {2, 3, 4}) {
        DsePoint point;
        ASSERT_TRUE(resumed.lookup(key, &point)) << key;
        EXPECT_TRUE(point.ok) << key;
        Schedule restored;
        EXPECT_FALSE(resumed.lookupSchedule(key, &restored)) << key;
    }
}

/**
 * Members of the wrong JSON kind or outside their range. Read
 * leniently, each would load as a default or a truncated value (not
 * ok, 2 solves, 2 nodes, a 0 s makespan, ...).
 */
struct BadMember
{
    const char *field;
    const char *json;
};

const BadMember kBadMembers[] = {
    {"ok", "\"true\""},
    {"solves", "4294967298"},
    {"nodes", "2.5"},
    {"makespan_s", "\"1388.4\""},
    {"degraded", "\"yes\""},
    {"gap", "-3"},
    {"gap", "1.5"},
    {"status", "\"done\""},
    {"backtracks", "-1"},
    {"solve_s", "-0.5"},
};

/** samplePoint's record line under `key`, with `bad` applied. */
std::string
recordLine(uint64_t key, const arch::SocConfig &config,
           const BadMember *bad = nullptr)
{
    DsePoint point = samplePoint(2.0);
    point.config = config;
    Json record = pointRecordJson(key, ModelKind::Hilp, point);
    if (bad) {
        Json value;
        EXPECT_TRUE(Json::parse(bad->json, &value)) << bad->json;
        record.set(bad->field, value);
    }
    return record.dump();
}

TEST_F(Checkpoint, MistypedOrOutOfRangeRecordsAreDroppedOnResume)
{
    arch::SocConfig config;
    std::FILE *file = std::fopen(path_.c_str(), "w");
    ASSERT_NE(file, nullptr);
    std::fputs((recordLine(1, config) + "\n").c_str(), file);
    for (size_t i = 0; i < std::size(kBadMembers); ++i)
        std::fputs((recordLine(2 + i, config, &kBadMembers[i]) + "\n")
                       .c_str(),
                   file);
    std::fclose(file);

    SweepCheckpoint resumed;
    ASSERT_TRUE(resumed.open(path_, true));
    EXPECT_EQ(resumed.loaded(), 1u);
    EXPECT_EQ(resumed.dropped(), std::size(kBadMembers));
    DsePoint point;
    EXPECT_TRUE(resumed.lookup(1, &point));
    for (size_t i = 0; i < std::size(kBadMembers); ++i)
        EXPECT_FALSE(resumed.lookup(2 + i, &point))
            << kBadMembers[i].field << ":" << kBadMembers[i].json;
}

TEST_F(Checkpoint, MistypedOrOutOfRangeRecordsAreRejectedBySubmit)
{
    // A worker's submit goes through the same reader: the coordinator
    // rejects each bad record, merges none, and still merges the
    // intact one.
    arch::SocConfig config;
    Coordinator coordinator({config}, ModelKind::Hilp);
    LeaseGrant grant;
    ASSERT_EQ(coordinator.lease("w1", &grant), LeaseOutcome::Granted);
    for (size_t i = 0; i < std::size(kBadMembers); ++i) {
        std::string error;
        EXPECT_FALSE(coordinator.submitRecord(
            "w1", grant.leaseId,
            recordLine(2 + i, config, &kBadMembers[i]), &error))
            << kBadMembers[i].field << ":" << kBadMembers[i].json;
        EXPECT_FALSE(error.empty());
    }
    EXPECT_EQ(coordinator.progress().pointsMerged, 0u);
    std::string error;
    EXPECT_TRUE(coordinator.submitRecord("w1", grant.leaseId,
                                         recordLine(1, config), &error))
        << error;
    EXPECT_EQ(coordinator.progress().pointsMerged, 1u);
}

TEST_F(Checkpoint, TornFinalLineIsDroppedNotFatal)
{
    {
        SweepCheckpoint checkpoint;
        ASSERT_TRUE(checkpoint.open(path_, false));
        checkpoint.record(1, ModelKind::Hilp, samplePoint(1.0));
        checkpoint.record(2, ModelKind::Hilp, samplePoint(2.0));
    }
    // Simulate a SIGKILL mid-write: a record with no trailing
    // newline, cut in the middle of its JSON.
    std::FILE *file = std::fopen(path_.c_str(), "a");
    ASSERT_NE(file, nullptr);
    std::fputs("{\"key\":\"0000000000000003\",\"ok\":tr", file);
    std::fclose(file);

    SweepCheckpoint resumed;
    ASSERT_TRUE(resumed.open(path_, true));
    EXPECT_EQ(resumed.loaded(), 2u);
    DsePoint point;
    EXPECT_TRUE(resumed.lookup(1, &point));
    EXPECT_TRUE(resumed.lookup(2, &point));
    EXPECT_FALSE(resumed.lookup(3, &point));

    // The torn record's point can be re-recorded and survives the
    // next resume: append stays usable after a dirty load.
    resumed.record(3, ModelKind::Hilp, samplePoint(3.0));
    resumed.close();
    SweepCheckpoint again;
    ASSERT_TRUE(again.open(path_, true));
    EXPECT_EQ(again.loaded(), 3u);
    EXPECT_TRUE(again.lookup(3, &point));
}

TEST_F(Checkpoint, InteriorCorruptionIsSkippedAndCounted)
{
    {
        SweepCheckpoint checkpoint;
        ASSERT_TRUE(checkpoint.open(path_, false));
        checkpoint.record(1, ModelKind::Hilp, samplePoint(1.0));
    }
    // Corruption in the *middle* of the ledger - a torn write that
    // later appends sealed over, or flipped bits - followed by good
    // records: the loader must skip and count, never abort, and the
    // records after the damage must survive.
    std::FILE *file = std::fopen(path_.c_str(), "a");
    ASSERT_NE(file, nullptr);
    std::fputs("{\"key\":\"000000000000?? garbage\n", file);
    std::fputs("not json at all\n", file);
    std::fclose(file);
    {
        SweepCheckpoint append;
        ASSERT_TRUE(append.open(path_, true));
        append.record(2, ModelKind::Hilp, samplePoint(2.0));
    }

    SweepCheckpoint resumed;
    std::string error;
    ASSERT_TRUE(resumed.open(path_, true, &error)) << error;
    EXPECT_EQ(resumed.loaded(), 2u);
    EXPECT_EQ(resumed.dropped(), 2u);
    DsePoint point;
    EXPECT_TRUE(resumed.lookup(1, &point));
    EXPECT_TRUE(resumed.lookup(2, &point));
}

TEST_F(Checkpoint, DroppedResetsAcrossOpens)
{
    std::FILE *file = std::fopen(path_.c_str(), "w");
    ASSERT_NE(file, nullptr);
    std::fputs("garbage line\n", file);
    std::fclose(file);

    SweepCheckpoint checkpoint;
    ASSERT_TRUE(checkpoint.open(path_, true));
    EXPECT_EQ(checkpoint.dropped(), 1u);
    checkpoint.close();
    // A truncating reopen starts a clean ledger: nothing dropped.
    ASSERT_TRUE(checkpoint.open(path_, false));
    EXPECT_EQ(checkpoint.dropped(), 0u);
    EXPECT_EQ(checkpoint.loaded(), 0u);
}

TEST_F(Checkpoint, FsyncedRecordsRoundTrip)
{
    // Behavioral coverage for the durability knob: records written
    // with fsync-on-flush must read back exactly like buffered ones.
    {
        SweepCheckpoint checkpoint;
        ASSERT_TRUE(checkpoint.open(path_, false));
        checkpoint.setFsync(true);
        checkpoint.record(1, ModelKind::Hilp, samplePoint(1.0));
        checkpoint.record(2, ModelKind::Hilp, samplePoint(2.0));
    }
    SweepCheckpoint resumed;
    ASSERT_TRUE(resumed.open(path_, true));
    EXPECT_EQ(resumed.loaded(), 2u);
    EXPECT_EQ(resumed.dropped(), 0u);
}

TEST_F(Checkpoint, OpenWithoutResumeTruncates)
{
    {
        SweepCheckpoint checkpoint;
        ASSERT_TRUE(checkpoint.open(path_, false));
        checkpoint.record(7, ModelKind::Hilp, samplePoint(1.0));
    }
    SweepCheckpoint fresh;
    ASSERT_TRUE(fresh.open(path_, false));
    EXPECT_EQ(fresh.loaded(), 0u);
    DsePoint point;
    EXPECT_FALSE(fresh.lookup(7, &point));
}

TEST_F(Checkpoint, SweepResumesCompletedPointsWithoutReevaluation)
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    std::vector<arch::SocConfig> configs;
    for (int cpus : {1, 2, 4}) {
        arch::SocConfig c;
        c.cpuCores = cpus;
        c.gpuSms = 16;
        configs.push_back(c);
    }

    SweepCheckpoint first;
    ASSERT_TRUE(first.open(path_, false));
    DseOptions options;
    options.checkpoint = &first;
    auto original = exploreSpace(configs, wl, arch::Constraints{},
                                 ModelKind::MultiAmdahl, options);
    first.close();

    SweepCheckpoint second;
    ASSERT_TRUE(second.open(path_, true));
    EXPECT_EQ(second.loaded(), configs.size());
    DseOptions resume_options;
    resume_options.checkpoint = &second;
    // Any evaluation would be a checkpoint miss: the fault injector
    // proves the resumed points never reach the evaluator (a point
    // that did would come back errored, not resumed).
    resume_options.injectFault = [](const arch::SocConfig &) {
        throw std::runtime_error("resume should not re-evaluate");
    };
    auto resumed = exploreSpace(configs, wl, arch::Constraints{},
                                ModelKind::MultiAmdahl,
                                resume_options);

    ASSERT_EQ(resumed.size(), original.size());
    for (size_t i = 0; i < resumed.size(); ++i) {
        EXPECT_TRUE(resumed[i].resumed) << i;
        EXPECT_FALSE(resumed[i].errored) << resumed[i].note;
        EXPECT_EQ(resumed[i].ok, original[i].ok) << i;
        EXPECT_DOUBLE_EQ(resumed[i].makespanS, original[i].makespanS)
            << i;
        EXPECT_DOUBLE_EQ(resumed[i].speedup, original[i].speedup)
            << i;
        EXPECT_EQ(resumed[i].config.name(), original[i].config.name())
            << i;
        EXPECT_DOUBLE_EQ(resumed[i].areaMm2, original[i].areaMm2)
            << i;
    }
}

TEST_F(Checkpoint, ColdHilpSweepPersistsReplayableSchedules)
{
    // A sweep with reuse off hands out its schedules like a reuse-on
    // sweep: every ok HILP point's schedule reaches the sink and the
    // checkpoint, and replays in the independent simulator at the
    // makespan the point reports.
    auto wl = workload::makeWorkload(workload::Variant::Default);
    std::vector<arch::SocConfig> configs;
    for (int cpus : {1, 2}) {
        for (int sms : {0, 4, 16}) {
            arch::SocConfig c;
            c.cpuCores = cpus;
            c.gpuSms = sms;
            configs.push_back(c);
        }
    }
    DseOptions options;
    options.engine.solver.maxSeconds = 2.0;
    options.threads = 2;
    options.reuse = false;

    SweepCheckpoint checkpoint;
    ASSERT_TRUE(checkpoint.open(path_, false));
    options.checkpoint = &checkpoint;
    std::mutex mutex;
    std::map<std::string, Schedule> streamed;
    auto points = exploreSpace(
        configs, wl, arch::Constraints{}, ModelKind::Hilp, options,
        [&](const DsePoint &point, const Schedule *schedule) {
            if (!schedule)
                return;
            std::lock_guard<std::mutex> lock(mutex);
            streamed[point.config.name()] = *schedule;
        });
    checkpoint.close();

    SweepCheckpoint resumed;
    ASSERT_TRUE(resumed.open(path_, true));
    EXPECT_EQ(resumed.loaded(), configs.size());
    for (size_t i = 0; i < points.size(); ++i) {
        const DsePoint &point = points[i];
        ASSERT_TRUE(point.ok) << point.note;
        EXPECT_FALSE(point.cacheHit);
        EXPECT_FALSE(point.warmStarted);
        const std::string name = configs[i].name();
        EXPECT_EQ(streamed.count(name), 1u) << name;

        Schedule schedule;
        ASSERT_TRUE(resumed.lookupSchedule(
            checkpointKey(point.fingerprint, name, ModelKind::Hilp),
            &schedule))
            << name;
        ProblemSpec spec =
            buildProblem(wl, configs[i], arch::Constraints{});
        sim::SimResult replay = sim::replaySchedule(spec, schedule);
        EXPECT_TRUE(replay.ok) << name << ": " << replay.violation;
        EXPECT_NEAR(replay.makespanS, point.makespanS,
                    1e-9 * point.makespanS)
            << name;
    }
}

} // anonymous namespace
} // namespace dse
} // namespace hilp
