/**
 * @file
 * Differential tests: the incremental list scheduler (one reusable
 * engine; the hill climber copies the placements a candidate shares
 * with the accepted run and stops runs that cannot be accepted)
 * against the from-scratch reference in tests/oracles. On random
 * models with groups, one to three cumulative resources (some modes
 * over a capacity, so they never fit), precedence, start lags and
 * tight horizons, bestGreedy, improveGreedy and listSchedule must
 * return exactly the reference's feasibility, makespan and (mode,
 * start) of every task, for every iteration budget and seed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "cp/list_scheduler.hh"
#include "cp/model.hh"
#include "oracles/list_scheduler_ref.hh"
#include "support/random.hh"
#include "support/str.hh"

namespace hilp {
namespace cp {
namespace {

/** Random model; horizons range from loose to too tight to fit. */
Model
randomModel(uint64_t seed)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 5);
    Model m;
    const int nr = static_cast<int>(rng.uniformInt(1, 3));
    for (int r = 0; r < nr; ++r)
        m.addResource(rng.uniformDouble(1.0, 3.0), format("r%d", r));
    const int ng = static_cast<int>(rng.uniformInt(0, 3));
    for (int g = 0; g < ng; ++g)
        m.addGroup(format("g%d", g));

    const int n = static_cast<int>(rng.uniformInt(2, 16));
    Time work = 0;
    for (int i = 0; i < n; ++i) {
        Task task;
        task.name = format("t%d", i);
        const int nm = static_cast<int>(rng.uniformInt(1, 4));
        Time shortest = 0;
        for (int k = 0; k < nm; ++k) {
            Mode mode;
            const int g = static_cast<int>(rng.uniformInt(-1, ng - 1));
            mode.group = g < 0 ? kNoGroup : g;
            mode.duration = rng.chance(0.08)
                ? 0
                : static_cast<Time>(rng.uniformInt(1, 6));
            for (int r = 0; r < nr; ++r) {
                mode.usage.push_back(
                    rng.chance(0.3)
                        ? 0.0
                        : rng.uniformDouble(0.0, 0.9 * m.capacity(r)));
            }
            if (rng.chance(0.1)) {
                // Over a capacity: this mode never fits.
                const int r = static_cast<int>(rng.uniformInt(0, nr - 1));
                mode.usage[r] = 1.5 * m.capacity(r);
            }
            shortest = k == 0 ? mode.duration
                              : std::min(shortest, mode.duration);
            task.modes.push_back(std::move(mode));
        }
        work += shortest;
        m.addTask(std::move(task));
    }
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
            if (rng.chance(0.15))
                m.addPrecedence(i, j);
            else if (rng.chance(0.06))
                m.addStartLag(i, j, static_cast<Time>(rng.uniformInt(0, 3)));
        }
    }
    m.setHorizon(std::max<Time>(
        1, static_cast<Time>(static_cast<double>(work) *
                             rng.uniformDouble(0.4, 1.6))));
    return m;
}

constexpr int kBudgets[] = {0, 1, 17, 400};
constexpr uint64_t kModelsPerShard = 25;

/** What a shard's models exercised, so coverage cannot rot silently. */
struct Coverage
{
    int infeasibleGreedy = 0;
    int infeasibleRuns = 0;
    int improved = 0;
};

/** Every comparison for one model, under a few seeds. */
void
checkModel(const Model &m, uint64_t seed, Coverage *coverage)
{
    const int n = m.numTasks();
    Rng rng(seed + 77);

    // One-shot runs under random priorities and forcings, including
    // the partial schedule a failing run returns.
    for (int i = 0; i < 4; ++i) {
        std::vector<int> order(n);
        std::iota(order.begin(), order.end(), 0);
        rng.shuffle(order);
        std::vector<int> forced;
        if (i % 2 == 1) {
            for (int t = 0; t < n; ++t) {
                const int nm = static_cast<int>(m.task(t).modes.size());
                forced.push_back(rng.chance(0.5)
                    ? -1
                    : static_cast<int>(rng.uniformInt(0, nm - 1)));
            }
        }
        ListResult want = referenceListSchedule(m, order, forced);
        coverage->infeasibleRuns += want.feasible ? 0 : 1;
        ASSERT_EQ(firstDifference(listSchedule(m, order, forced), want), "")
            << "listSchedule, run " << i;
    }

    for (uint64_t run_seed : {seed, seed + 1000, seed + 2000}) {
        const int restarts = static_cast<int>(run_seed % 5);
        ListResult greedy = bestGreedy(m, restarts, run_seed);
        ASSERT_EQ(firstDifference(
                      greedy, referenceBestGreedy(m, restarts, run_seed)),
                  "")
            << "bestGreedy, seed " << run_seed;
        coverage->infeasibleGreedy += greedy.feasible ? 0 : 1;

        // From the greedy incumbent (an infeasible one passes
        // through), and from a weaker one-shot schedule whose
        // recovered order differs from the greedy's.
        std::vector<int> order(n);
        std::iota(order.begin(), order.end(), 0);
        rng.shuffle(order);
        ListResult weak = referenceListSchedule(m, order, {});
        for (const ListResult *start : {&greedy, &weak}) {
            for (int budget : kBudgets) {
                ListResult want = referenceImproveGreedy(
                    m, *start, budget, run_seed + 1);
                if (want.feasible && start->feasible &&
                    want.makespan < start->makespan)
                    ++coverage->improved;
                ASSERT_EQ(firstDifference(improveGreedy(m, *start, budget,
                                                        run_seed + 1),
                                          want),
                          "")
                    << "improveGreedy, seed " << run_seed << ", budget "
                    << budget << (start == &weak ? ", weak start" : "");
            }
        }
    }
}

class ListSchedulerDiff : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ListSchedulerDiff, MatchesFromScratchReference)
{
    Coverage coverage;
    for (uint64_t i = 0; i < kModelsPerShard; ++i) {
        const uint64_t seed = GetParam() * kModelsPerShard + i;
        Model m = randomModel(seed);
        ASSERT_NO_FATAL_FAILURE(checkModel(m, seed, &coverage))
            << "model seed " << seed;
    }
    // Every shard mixes models that fit with ones that do not, and
    // climbs that improve on their start.
    EXPECT_GT(coverage.infeasibleGreedy, 0);
    EXPECT_GT(coverage.infeasibleRuns, 0);
    EXPECT_GT(coverage.improved, 0);
}

// 8 shards x 25 models: 200 random models.
INSTANTIATE_TEST_SUITE_P(Shards, ListSchedulerDiff,
                         ::testing::Range<uint64_t>(0, 8));

/**
 * A reused engine: runs under a reference, with cutoffs, and after a
 * failed run all return what a fresh one-shot run returns.
 */
TEST(ListSchedulerEngine, ReusedRunsMatchOneShotRuns)
{
    for (uint64_t seed = 0; seed < 40; ++seed) {
        Model m = randomModel(seed + 500);
        const int n = m.numTasks();
        Rng rng(seed);
        ListScheduler sgs(m);
        for (int i = 0; i < 30; ++i) {
            std::vector<int> order(n);
            std::iota(order.begin(), order.end(), 0);
            rng.shuffle(order);
            std::vector<int> forced(n, -1);
            forced[rng.uniformInt(0, n - 1)] = 0;
            ListResult want = referenceListSchedule(m, order, forced);
            const bool ok = sgs.run(order, forced);
            ASSERT_EQ(ok, want.feasible) << "seed " << seed;
            ASSERT_EQ(firstDifference(sgs.result(), want), "");
            if (rng.chance(0.5))
                sgs.keep();
            if (want.feasible && want.makespan > 0) {
                // A cutoff below the makespan stops the run; one at
                // it does not.
                EXPECT_FALSE(sgs.run(order, forced, want.makespan - 1));
                ASSERT_TRUE(sgs.run(order, forced, want.makespan));
                ASSERT_EQ(firstDifference(sgs.result(), want), "");
            }
        }
    }
}

} // anonymous namespace
} // namespace cp
} // namespace hilp
