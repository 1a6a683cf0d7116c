/**
 * @file
 * Randomized LP tests: on generated instances with bounded feasible
 * regions, the solver's "optimal" answer must (i) satisfy every
 * constraint and (ii) be no worse than a batch of random feasible
 * points.
 */

#include <gtest/gtest.h>

#include <vector>

#include "lp/lp.hh"
#include "support/random.hh"

namespace hilp {
namespace lp {
namespace {

struct Instance
{
    Problem problem;
    std::vector<std::vector<double>> rows;
    std::vector<Relation> rels;
    std::vector<double> rhs;
    int n = 0;
};

/**
 * Generate a random LP with all variables in [0, 10] (so it is
 * always bounded) and a mix of <= / >= / = constraints engineered to
 * keep the origin-ish region feasible often enough to be useful.
 */
Instance
randomInstance(Rng &rng)
{
    Instance inst;
    inst.n = 2 + static_cast<int>(rng.uniformInt(0, 3));
    for (int j = 0; j < inst.n; ++j)
        inst.problem.addVariable(0.0, 10.0,
                                 rng.uniformDouble(-2.0, 2.0));
    int m = 1 + static_cast<int>(rng.uniformInt(0, 3));
    for (int i = 0; i < m; ++i) {
        std::vector<Term> terms;
        std::vector<double> row(inst.n, 0.0);
        for (int j = 0; j < inst.n; ++j) {
            if (!rng.chance(0.7))
                continue;
            double coeff = rng.uniformDouble(-1.5, 1.5);
            row[j] = coeff;
            terms.push_back({j, coeff});
        }
        if (terms.empty()) {
            row[0] = 1.0;
            terms.push_back({0, 1.0});
        }
        // Mostly <= with generous rhs; occasionally >= with small
        // rhs so phase 1 gets exercised without making everything
        // infeasible. A third of the >= rows are homogeneous (rhs
        // exactly 0), which the solver negates into <= rows.
        Relation rel;
        double rhs;
        double dice = rng.uniformDouble();
        if (dice < 0.6) {
            rel = Relation::LessEqual;
            rhs = rng.uniformDouble(1.0, 20.0);
        } else if (dice < 0.7) {
            rel = Relation::GreaterEqual;
            rhs = 0.0;
        } else if (dice < 0.9) {
            rel = Relation::GreaterEqual;
            rhs = rng.uniformDouble(-20.0, 2.0);
        } else {
            rel = Relation::LessEqual;
            rhs = rng.uniformDouble(-2.0, 2.0);
        }
        inst.problem.addConstraint(terms, rel, rhs);
        inst.rows.push_back(std::move(row));
        inst.rels.push_back(rel);
        inst.rhs.push_back(rhs);
    }
    return inst;
}

bool
feasible(const Instance &inst, const std::vector<double> &x,
         double eps = 1e-6)
{
    for (int j = 0; j < inst.n; ++j)
        if (x[j] < -eps || x[j] > 10.0 + eps)
            return false;
    for (size_t i = 0; i < inst.rows.size(); ++i) {
        double lhs = 0.0;
        for (int j = 0; j < inst.n; ++j)
            lhs += inst.rows[i][j] * x[j];
        switch (inst.rels[i]) {
          case Relation::LessEqual:
            if (lhs > inst.rhs[i] + eps)
                return false;
            break;
          case Relation::GreaterEqual:
            if (lhs < inst.rhs[i] - eps)
                return false;
            break;
          case Relation::Equal:
            if (std::abs(lhs - inst.rhs[i]) > eps)
                return false;
            break;
        }
    }
    return true;
}

double
objectiveOf(const Instance &inst, const std::vector<double> &x)
{
    double value = 0.0;
    for (int j = 0; j < inst.n; ++j)
        value += inst.problem.objective(j) * x[j];
    return value;
}

class LpFuzz : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(LpFuzz, OptimalPointIsFeasibleAndBeatsRandomPoints)
{
    Rng rng(GetParam() * 5557);
    Instance inst = randomInstance(rng);
    Solution sol = Solver().solve(inst.problem);
    // Bounded box: never unbounded.
    ASSERT_NE(sol.status, Status::Unbounded);
    if (sol.status != Status::Optimal) {
        // Claimed infeasible: no random point may be feasible.
        for (int trial = 0; trial < 2000; ++trial) {
            std::vector<double> x(inst.n);
            for (int j = 0; j < inst.n; ++j)
                x[j] = rng.uniformDouble(0.0, 10.0);
            EXPECT_FALSE(feasible(inst, x, -1e-6))
                << "solver said infeasible but a feasible point "
                   "exists";
        }
        return;
    }
    EXPECT_TRUE(feasible(inst, sol.x)) << "optimal point infeasible";
    EXPECT_NEAR(objectiveOf(inst, sol.x), sol.objective, 1e-6);
    // No sampled feasible point may beat the reported optimum.
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<double> x(inst.n);
        for (int j = 0; j < inst.n; ++j)
            x[j] = rng.uniformDouble(0.0, 10.0);
        if (!feasible(inst, x, -1e-9))
            continue;
        EXPECT_GE(objectiveOf(inst, x), sol.objective - 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpFuzz,
                         ::testing::Range<uint64_t>(1, 41));

} // anonymous namespace
} // namespace lp
} // namespace hilp
