/**
 * @file
 * Differential test of the LP bound: computeLowerBounds builds the
 * relaxation around a feasible point (shortest usable mode
 * eliminated, start bounds and makespan shifted by their heads, the
 * completion rows that successors imply dropped); the reference in
 * tests/oracles builds it directly. On random models with several
 * groups and resources, modes over a capacity, zero durations,
 * precedence and start lags, both must give exactly the same bound.
 * tests/hilp/test_lp_bound_fig7.cc does the same on the Figure 7
 * models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cp/bounds.hh"
#include "cp/model.hh"
#include "oracles/lp_bound_ref.hh"
#include "support/random.hh"
#include "support/str.hh"

namespace hilp {
namespace cp {
namespace {

/**
 * Random model: one to three resources and groups, two to fourteen
 * tasks of one to four modes (some over a capacity, some of zero
 * duration), a random DAG of precedence edges and start lags.
 */
Model
randomModel(uint64_t seed)
{
    Rng rng(seed * 0x2545F4914F6CDD1Dull + 17);
    Model m;
    const int nr = static_cast<int>(rng.uniformInt(1, 3));
    for (int r = 0; r < nr; ++r)
        m.addResource(rng.uniformDouble(1.0, 4.0), format("r%d", r));
    const int ng = static_cast<int>(rng.uniformInt(1, 3));
    for (int g = 0; g < ng; ++g)
        m.addGroup(format("g%d", g));

    const int n = static_cast<int>(rng.uniformInt(2, 14));
    for (int i = 0; i < n; ++i) {
        Task task;
        task.name = format("t%d", i);
        const int nm = static_cast<int>(rng.uniformInt(1, 4));
        for (int k = 0; k < nm; ++k) {
            Mode mode;
            const int g = static_cast<int>(rng.uniformInt(-1, ng - 1));
            mode.group = g < 0 ? kNoGroup : g;
            mode.duration = rng.chance(0.1)
                ? 0
                : static_cast<Time>(rng.uniformInt(1, 9));
            for (int r = 0; r < nr; ++r) {
                mode.usage.push_back(
                    rng.chance(0.25)
                        ? 0.0
                        : rng.uniformDouble(0.0, m.capacity(r)));
            }
            if (rng.chance(k > 0 ? 0.25 : 0.02)) {
                // Over a capacity: this mode never fits (rarely the
                // first, so a few tasks have no usable mode).
                const int r = static_cast<int>(rng.uniformInt(0, nr - 1));
                mode.usage[r] = 1.25 * m.capacity(r);
            }
            task.modes.push_back(std::move(mode));
        }
        m.addTask(std::move(task));
    }
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
            if (rng.chance(0.15))
                m.addPrecedence(i, j);
            else if (rng.chance(0.08))
                m.addStartLag(i, j,
                              static_cast<Time>(rng.uniformInt(0, 6)));
        }
    }
    m.setHorizon(500);
    return m;
}

TEST(LpBoundDiff, MatchesDirectRelaxationOnRandomModels)
{
    int above_combinatorial = 0;
    int unusable_task = 0;
    for (uint64_t seed = 1; seed <= 256; ++seed) {
        const Model m = randomModel(seed);
        ASSERT_EQ(m.validate(), "");
        SCOPED_TRACE("seed " + std::to_string(seed));
        const LowerBounds lb = computeLowerBounds(m, true);
        ASSERT_EQ(lb.lpRelaxation, referenceLpRelaxationBound(m));
        if (lb.lpRelaxation == 0)
            ++unusable_task;
        else if (lb.lpRelaxation > std::max({lb.criticalPath,
                                             lb.groupLoad,
                                             lb.resourceEnergy}))
            ++above_combinatorial;
    }
    // The set reaches the rows the shift leaves over M0 (the LP beats
    // every combinatorial bound) and the task with no usable mode.
    EXPECT_GT(above_combinatorial, 50);
    EXPECT_GT(unusable_task, 0);
}

} // anonymous namespace
} // namespace cp
} // namespace hilp
