/**
 * @file
 * Differential test on real instances: bestGreedy and improveGreedy
 * against the from-scratch reference (tests/oracles) on discretized
 * models of the Figure 7 design space, at the solver's default
 * restart and iteration counts. See tests/cp/test_list_scheduler_diff.cc
 * for the random-model version.
 */

#include <gtest/gtest.h>

#include <vector>

#include "arch/design_space.hh"
#include "cp/list_scheduler.hh"
#include "hilp/builder.hh"
#include "hilp/discretize.hh"
#include "oracles/list_scheduler_ref.hh"
#include "workload/rodinia.hh"

namespace hilp {
namespace {

TEST(ListSchedulerDiffFig7, MatchesFromScratchReference)
{
    arch::DesignSpace space;
    space.dsaAdvantage = 4.0;
    std::vector<arch::SocConfig> configs =
        arch::enumerateDesignSpace(space, workload::dsaPriorityOrder());
    ASSERT_EQ(configs.size(), 372u);
    const workload::Workload wl =
        workload::makeWorkload(workload::Variant::Default);

    // Every 12th configuration (31 of them), at a coarse and a finer
    // resolution.
    int improved = 0;
    for (size_t i = 0; i < configs.size(); i += 12) {
        ProblemSpec spec =
            buildProblem(wl, configs[i], arch::Constraints{});
        for (double step_s : {10.0, 5.0}) {
            SCOPED_TRACE(configs[i].name() + " at step " +
                         std::to_string(step_s));
            const cp::Model model = discretize(spec, step_s, 200).model;
            cp::ListResult greedy = cp::bestGreedy(model, 8, i + 1);
            ASSERT_EQ(cp::firstDifference(
                          greedy, cp::referenceBestGreedy(model, 8, i + 1)),
                      "");
            cp::ListResult want =
                cp::referenceImproveGreedy(model, greedy, 400, i + 2);
            ASSERT_EQ(cp::firstDifference(
                          cp::improveGreedy(model, greedy, 400, i + 2), want),
                      "");
            if (want.feasible && want.makespan < greedy.makespan)
                ++improved;
        }
    }
    EXPECT_GT(improved, 0);
}

} // anonymous namespace
} // namespace hilp
