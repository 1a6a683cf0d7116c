/**
 * @file
 * Differential test of the LP bound on real instances: every
 * discretized model of the Figure 7 design space, at a coarse and a
 * fine step and under the default and a tight power budget, must get
 * exactly the bound of the direct relaxation in tests/oracles. See
 * tests/cp/test_lp_bound_diff.cc for the random-model version.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/design_space.hh"
#include "cp/bounds.hh"
#include "hilp/builder.hh"
#include "hilp/discretize.hh"
#include "oracles/lp_bound_ref.hh"
#include "workload/rodinia.hh"

namespace hilp {
namespace {

TEST(LpBoundDiffFig7, MatchesDirectRelaxation)
{
    arch::DesignSpace space;
    space.dsaAdvantage = 4.0;
    std::vector<arch::SocConfig> configs =
        arch::enumerateDesignSpace(space, workload::dsaPriorityOrder());
    ASSERT_EQ(configs.size(), 372u);
    const workload::Workload wl =
        workload::makeWorkload(workload::Variant::Default);

    int above_critical_path = 0;
    for (double budget_w : {600.0, 50.0}) {
        arch::Constraints constraints;
        constraints.powerBudgetW = budget_w;
        for (const arch::SocConfig &config : configs) {
            ProblemSpec spec = buildProblem(wl, config, constraints);
            for (double step_s : {10.0, 2.0}) {
                SCOPED_TRACE(config.name() + " at step " +
                             std::to_string(step_s) + " under " +
                             std::to_string(budget_w) + " W");
                const cp::Model model =
                    discretize(spec, step_s, 200).model;
                const cp::LowerBounds lb =
                    cp::computeLowerBounds(model, true);
                ASSERT_EQ(lb.lpRelaxation,
                          cp::referenceLpRelaxationBound(model));
                if (lb.lpRelaxation > lb.criticalPath)
                    ++above_critical_path;
            }
        }
    }
    EXPECT_GT(above_critical_path, 0);
}

} // anonymous namespace
} // namespace hilp
