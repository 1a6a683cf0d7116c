/**
 * @file
 * Differential tests: the interval-based Profile against the dense
 * step-indexed Timetable. Both implement the same occupancy contract
 * in the same scaled integer units, so across arbitrary operation
 * sequences every query must agree *exactly* - earliestStart, fits,
 * per-step usage, and group busyness. The dense table is the
 * obviously-correct reference; any disagreement is a Profile bug.
 *
 * Every probed mode is registered with the model, exercising the
 * precomputed Mode::id rows and the growth of the shared axis and
 * the group regions under many placements. The modes touch one, two
 * or all three resources, or none at all. Between rounds the profile
 * is cleared (the table emptied by removes) and refilled, and a
 * cleared profile that grew must answer exactly as a fresh one.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cp/model.hh"
#include "cp/profile.hh"
#include "oracles/timetable.hh"
#include "support/random.hh"
#include "support/str.hh"

namespace hilp {
namespace cp {
namespace {

/**
 * Number of maximal runs of the dense table over which every
 * resource's usage is constant: a canonical Profile stores exactly
 * one segment per run on its shared axis. A redundant segment (two
 * adjacent equal rows) leaves every answer right, so only this count
 * sees a junction merge that stops firing.
 */
size_t
axisRuns(const Model &m, const Timetable &table)
{
    size_t runs = 1;
    for (Time s = 1; s < m.horizon(); ++s) {
        for (int r = 0; r < m.numResources(); ++r) {
            if (table.usageUnits(r, s) != table.usageUnits(r, s - 1)) {
                ++runs;
                break;
            }
        }
    }
    return runs;
}

/** Compare the complete observable state of both implementations. */
void
expectSameState(const Model &m, const Profile &profile,
                const Timetable &table, int step)
{
    for (Time s = 0; s < m.horizon(); ++s) {
        for (int r = 0; r < m.numResources(); ++r) {
            ASSERT_EQ(profile.usageUnits(r, s),
                      table.usageUnits(r, s))
                << "usage mismatch r=" << r << " t=" << s
                << " at op " << step;
        }
        for (int g = 0; g < m.numGroups(); ++g) {
            ASSERT_EQ(profile.groupBusy(g, s), table.groupBusy(g, s))
                << "group mismatch g=" << g << " t=" << s
                << " at op " << step;
        }
    }
    // Representation invariant: place/remove round-trips keep the
    // axis canonical (adjacent rows differ), so its segment count is
    // the dense table's count of runs.
    ASSERT_EQ(profile.segments(), axisRuns(m, table))
        << "segment count mismatch at op " << step;
}

class ProfileDiff : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ProfileDiff, AgreesWithDenseTimetable)
{
    Rng rng(GetParam() * 7919 + 17);
    Model m;
    m.addResource(rng.uniformDouble(1.0, 3.0), "r0");
    m.addResource(rng.uniformDouble(0.5, 2.0), "r1");
    m.addResource(rng.uniformDouble(0.5, 1.5), "r2");
    int g1 = m.addGroup("A");
    int g2 = m.addGroup("B");
    m.setHorizon(static_cast<Time>(rng.uniformInt(16, 48)));

    // A pool of candidate modes, including zero-duration and
    // capacity-saturating shapes. Bit r of touches[i % 8] says
    // whether mode i uses resource r: one, two or all three of them,
    // or none (a group-only mode, the empty-row path).
    const int touches[8] = {0b001, 0b010, 0b100, 0b011,
                            0b110, 0b101, 0b111, 0b000};
    std::vector<Mode> modes;
    for (int i = 0; i < 16; ++i) {
        Mode mode;
        double which = rng.uniformDouble();
        mode.group = which < 0.3 ? g1 : which < 0.6 ? g2 : kNoGroup;
        mode.duration = static_cast<Time>(rng.uniformInt(0, 6));
        mode.usage = {rng.uniformDouble(0.0, 1.5),
                      rng.uniformDouble(0.0, 1.0),
                      rng.uniformDouble(0.0, 1.0)};
        for (int r = 0; r < 3; ++r)
            if ((touches[i % 8] & (1 << r)) == 0)
                mode.usage[r] = 0.0;
        if (touches[i % 8] == 0) {
            mode.group = i < 8 ? g1 : g2;
            mode.duration = static_cast<Time>(rng.uniformInt(1, 6));
        }
        modes.push_back(mode);
    }

    // Register every mode with the model (assigning Mode::id) and
    // probe through the registered copies.
    for (size_t i = 0; i < modes.size(); ++i) {
        Task task;
        task.name = format("t%zu", i);
        task.modes = {modes[i]};
        m.addTask(std::move(task));
    }
    std::vector<const Mode *> pool;
    for (int i = 0; i < m.numTasks(); ++i)
        pool.push_back(&m.task(i).modes[0]);

    Profile profile(m);
    Timetable table(m);
    std::vector<std::pair<const Mode *, Time>> active;

    // Three rounds of 500 operations. Between rounds the profile is
    // cleared and the table emptied by removing every placement: from
    // there on both must agree again.
    for (int step = 0; step < 1500; ++step) {
        if (step > 0 && step % 500 == 0) {
            expectSameState(m, profile, table, step);
            profile.clear();
            for (auto [mode, start] : active)
                table.remove(*mode, start);
            active.clear();
            expectSameState(m, profile, table, step);
        }
        // Probe queries agree regardless of what gets placed.
        {
            const Mode &probe = *pool[static_cast<size_t>(
                rng.uniformInt(0, 15))];
            Time est = static_cast<Time>(
                rng.uniformInt(0, m.horizon()));
            ASSERT_EQ(profile.earliestStart(probe, est),
                      table.earliestStart(probe, est))
                << "earliestStart mismatch at op " << step;
            Time at = static_cast<Time>(
                rng.uniformInt(0, m.horizon()));
            ASSERT_EQ(profile.fits(probe, at), table.fits(probe, at))
                << "fits mismatch at op " << step;
        }

        if (active.size() < 10 && rng.chance(0.6)) {
            const Mode &mode = *pool[static_cast<size_t>(
                rng.uniformInt(0, 15))];
            Time est = static_cast<Time>(
                rng.uniformInt(0, m.horizon() - 1));
            Time start = table.earliestStart(mode, est);
            ASSERT_EQ(profile.earliestStart(mode, est), start);
            if (start >= 0) {
                profile.place(mode, start);
                table.place(mode, start);
                active.emplace_back(&mode, start);
            }
        } else if (!active.empty()) {
            size_t pick = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(active.size()) - 1));
            auto [mode, start] = active[pick];
            profile.remove(*mode, start);
            table.remove(*mode, start);
            active.erase(active.begin() +
                         static_cast<ptrdiff_t>(pick));
        }

        if (step % 25 == 0)
            expectSameState(m, profile, table, step);
    }
    expectSameState(m, profile, table, 1500);
}

/** Same segments, intervals, usage and earliestStart answers. */
void
expectSameProfile(const Model &m, const Profile &got,
                  const Profile &want)
{
    ASSERT_EQ(got.segments(), want.segments());
    for (int r = 0; r < m.numResources(); ++r) {
        for (Time s = 0; s < m.horizon(); ++s)
            ASSERT_EQ(got.usageUnits(r, s), want.usageUnits(r, s))
                << "r=" << r << " t=" << s;
    }
    for (int g = 0; g < m.numGroups(); ++g) {
        ASSERT_EQ(got.intervals(g), want.intervals(g)) << "g=" << g;
        for (Time s = 0; s < m.horizon(); ++s)
            ASSERT_EQ(got.groupBusy(g, s), want.groupBusy(g, s))
                << "g=" << g << " t=" << s;
    }
    for (int t = 0; t < m.numTasks(); ++t) {
        for (Time est = 0; est <= m.horizon(); ++est) {
            ASSERT_EQ(got.earliestStart(m.task(t).modes[0], est),
                      want.earliestStart(m.task(t).modes[0], est))
                << "task " << t << " est " << est;
        }
    }
}

TEST_P(ProfileDiff, ClearedProfileMatchesFresh)
{
    Rng rng(GetParam() * 104729 + 3);
    Model m;
    m.addResource(rng.uniformDouble(1.0, 3.0), "r0");
    m.addResource(rng.uniformDouble(0.5, 2.0), "r1");
    int g1 = m.addGroup("A");
    int g2 = m.addGroup("B");
    m.setHorizon(static_cast<Time>(rng.uniformInt(100, 140)));

    for (int i = 0; i < 16; ++i) {
        Mode mode;
        double which = rng.uniformDouble();
        mode.group = which < 0.3 ? g1 : which < 0.6 ? g2 : kNoGroup;
        mode.duration = static_cast<Time>(rng.uniformInt(0, 12));
        mode.usage = {rng.uniformDouble(0.0, 1.5),
                      rng.uniformDouble(0.0, 1.0)};
        Task task;
        task.name = format("t%d", i);
        task.modes = {mode};
        m.addTask(std::move(task));
    }
    // One-step modes that grow the axis and group A's region.
    Task tick;
    tick.name = "tick";
    tick.modes = {Mode{kNoGroup, 1, {0.01, 0.0}}};
    const int tick_task = m.addTask(std::move(tick));
    Task blip;
    blip.name = "blip";
    blip.modes = {Mode{g1, 1, {0.0, 0.0}}};
    const int blip_task = m.addTask(std::move(blip));
    const Mode &tick_mode = m.task(tick_task).modes[0];
    const Mode &blip_mode = m.task(blip_task).modes[0];
    const size_t n = static_cast<size_t>(m.numTasks());

    Profile profile(m);
    const size_t fresh_bytes = profile.heapBytes();
    // A tick on every other step: one segment per step, more than
    // the 2n + 4 the axis starts with.
    for (Time s = 0; s + 1 < m.horizon(); s += 2) {
        profile.place(tick_mode, s);
        profile.place(blip_mode, s);
    }
    ASSERT_GT(profile.segments(), 2 * n + 4);
    ASSERT_GT(profile.intervals(g1), n + 2);
    ASSERT_GT(profile.heapBytes(), fresh_bytes);

    for (int round = 0; round < 4; ++round) {
        profile.clear();
        Profile fresh(m);
        ASSERT_NO_FATAL_FAILURE(expectSameProfile(m, profile, fresh));
        // A different random placement set each round, placed where
        // the fresh profile finds room.
        const int placements = static_cast<int>(rng.uniformInt(5, 40));
        for (int i = 0; i < placements; ++i) {
            const Mode &mode =
                m.task(static_cast<int>(rng.uniformInt(0, 15))).modes[0];
            Time start = fresh.earliestStart(
                mode, static_cast<Time>(rng.uniformInt(0, m.horizon())));
            if (start < 0)
                continue;
            fresh.place(mode, start);
            profile.place(mode, start);
        }
        ASSERT_NO_FATAL_FAILURE(expectSameProfile(m, profile, fresh))
            << "round " << round;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileDiff,
                         ::testing::Range<uint64_t>(1, 17));

} // anonymous namespace
} // namespace cp
} // namespace hilp
