/**
 * @file
 * Fuzz tests for the timetable: random place/remove sequences are
 * cross-checked against a naive reference implementation that
 * recomputes occupancy from scratch.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cp/model.hh"
#include "oracles/timetable.hh"
#include "support/random.hh"

namespace hilp {
namespace cp {
namespace {

/** Naive occupancy oracle: recompute everything on every query. */
class NaiveTable
{
  public:
    explicit NaiveTable(const Model &model) : model_(model) {}

    void
    place(const Mode &mode, Time start)
    {
        placed_.push_back({&mode, start});
    }

    void
    remove(const Mode &mode, Time start)
    {
        for (size_t i = 0; i < placed_.size(); ++i) {
            if (placed_[i].first == &mode &&
                placed_[i].second == start) {
                placed_.erase(placed_.begin() +
                              static_cast<ptrdiff_t>(i));
                return;
            }
        }
        FAIL() << "remove of unplaced mode";
    }

    bool
    fits(const Mode &mode, Time start) const
    {
        if (start + mode.duration > model_.horizon())
            return false;
        for (Time s = start; s < start + mode.duration; ++s) {
            if (mode.group != kNoGroup) {
                for (const auto &[placed, pstart] : placed_) {
                    if (placed->group == mode.group &&
                        s >= pstart &&
                        s < pstart + placed->duration)
                        return false;
                }
            }
            for (int r = 0; r < model_.numResources(); ++r) {
                // Same scaled integer units as the timetable, so
                // the oracle agrees exactly, not just within eps.
                Units used = toUnits(mode.usage[r]);
                for (const auto &[placed, pstart] : placed_) {
                    if (s >= pstart && s < pstart + placed->duration)
                        used += toUnits(placed->usage[r]);
                }
                if (used > toUnits(model_.capacity(r)) +
                           kCapacitySlack)
                    return false;
            }
        }
        return true;
    }

    Time
    earliestStart(const Mode &mode, Time est) const
    {
        for (Time s = est; s + mode.duration <= model_.horizon();
             ++s) {
            if (fits(mode, s))
                return s;
        }
        if (mode.duration == 0)
            return est <= model_.horizon() ? est : -1;
        return -1;
    }

  private:
    const Model &model_;
    std::vector<std::pair<const Mode *, Time>> placed_;
};

class TimetableFuzz : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(TimetableFuzz, MatchesNaiveOracle)
{
    Rng rng(GetParam() * 31337);
    Model m;
    m.addResource(rng.uniformDouble(1.0, 3.0), "r0");
    m.addResource(rng.uniformDouble(1.0, 3.0), "r1");
    int g1 = m.addGroup("A");
    int g2 = m.addGroup("B");
    m.setHorizon(24);

    // A pool of candidate modes.
    std::vector<Mode> modes;
    for (int i = 0; i < 12; ++i) {
        Mode mode;
        double which = rng.uniformDouble();
        mode.group = which < 0.33 ? g1 : which < 0.66 ? g2 : kNoGroup;
        mode.duration = static_cast<Time>(rng.uniformInt(0, 5));
        mode.usage = {rng.uniformDouble(0.0, 1.5),
                      rng.uniformDouble(0.0, 1.5)};
        modes.push_back(mode);
    }

    Timetable table(m);
    NaiveTable naive(m);
    std::vector<std::pair<const Mode *, Time>> active;

    for (int step = 0; step < 200; ++step) {
        if (active.size() < 6 && rng.chance(0.6)) {
            // Try to place a random mode at a random est.
            const Mode &mode = modes[static_cast<size_t>(
                rng.uniformInt(0, 11))];
            Time est = static_cast<Time>(rng.uniformInt(0, 20));
            Time fast = table.earliestStart(mode, est);
            Time slow = naive.earliestStart(mode, est);
            ASSERT_EQ(fast, slow)
                << "earliestStart mismatch at step " << step;
            if (fast >= 0) {
                ASSERT_TRUE(table.fits(mode, fast));
                table.place(mode, fast);
                naive.place(mode, fast);
                active.emplace_back(&mode, fast);
            }
        } else if (!active.empty()) {
            // Remove a random active placement.
            size_t pick = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(active.size()) - 1));
            auto [mode, start] = active[pick];
            table.remove(*mode, start);
            naive.remove(*mode, start);
            active.erase(active.begin() +
                         static_cast<ptrdiff_t>(pick));
        }
    }

    // Drain and verify emptiness.
    for (auto [mode, start] : active)
        table.remove(*mode, start);
    Mode probe;
    probe.group = g1;
    probe.duration = 24;
    probe.usage = {0.0, 0.0};
    EXPECT_EQ(table.earliestStart(probe, 0), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimetableFuzz,
                         ::testing::Range<uint64_t>(1, 13));

} // anonymous namespace
} // namespace cp
} // namespace hilp
