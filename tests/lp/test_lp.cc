/** @file Unit tests for the dense two-phase simplex LP solver. */

#include <gtest/gtest.h>

#include <cmath>

#include "lp/lp.hh"

namespace hilp {
namespace lp {
namespace {

TEST(Lp, TrivialUnconstrainedMinimumAtLowerBounds)
{
    Problem p;
    p.addVariable(0.0, kInf, 1.0);
    p.addVariable(2.0, kInf, 3.0);
    Solution s = Solver().solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, 6.0, 1e-9);
    EXPECT_NEAR(s.x[0], 0.0, 1e-9);
    EXPECT_NEAR(s.x[1], 2.0, 1e-9);
}

TEST(Lp, ClassicTwoVariableMaximization)
{
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    // (a textbook problem; optimum x=2, y=6, objective 36).
    Problem p;
    int x = p.addVariable(0.0, kInf, -3.0);
    int y = p.addVariable(0.0, kInf, -5.0);
    p.addConstraint({{x, 1.0}}, Relation::LessEqual, 4.0);
    p.addConstraint({{y, 2.0}}, Relation::LessEqual, 12.0);
    p.addConstraint({{x, 3.0}, {y, 2.0}}, Relation::LessEqual, 18.0);
    Solution s = Solver().solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, -36.0, 1e-9);
    EXPECT_NEAR(s.x[x], 2.0, 1e-9);
    EXPECT_NEAR(s.x[y], 6.0, 1e-9);
}

TEST(Lp, GreaterEqualConstraintsNeedPhase1)
{
    // min x + y s.t. x + 2y >= 4, 3x + y >= 6; optimum at the
    // intersection (8/5, 6/5), objective 14/5.
    Problem p;
    int x = p.addVariable(0.0, kInf, 1.0);
    int y = p.addVariable(0.0, kInf, 1.0);
    p.addConstraint({{x, 1.0}, {y, 2.0}}, Relation::GreaterEqual, 4.0);
    p.addConstraint({{x, 3.0}, {y, 1.0}}, Relation::GreaterEqual, 6.0);
    Solution s = Solver().solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, 14.0 / 5.0, 1e-9);
    EXPECT_NEAR(s.x[x], 8.0 / 5.0, 1e-9);
    EXPECT_NEAR(s.x[y], 6.0 / 5.0, 1e-9);
}

TEST(Lp, EqualityConstraint)
{
    // min x + 2y s.t. x + y = 3, x <= 1 -> x=1, y=2, objective 5.
    Problem p;
    int x = p.addVariable(0.0, 1.0, 1.0);
    int y = p.addVariable(0.0, kInf, 2.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 3.0);
    Solution s = Solver().solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, 5.0, 1e-9);
    EXPECT_NEAR(s.x[x], 1.0, 1e-9);
    EXPECT_NEAR(s.x[y], 2.0, 1e-9);
}

TEST(Lp, EqualityPrefersCheapVariable)
{
    // min 2x + y s.t. x + y = 3 -> y=3, objective 3.
    Problem p;
    int x = p.addVariable(0.0, kInf, 2.0);
    int y = p.addVariable(0.0, kInf, 1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 3.0);
    Solution s = Solver().solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, 3.0, 1e-9);
    EXPECT_NEAR(s.x[x], 0.0, 1e-9);
    EXPECT_NEAR(s.x[y], 3.0, 1e-9);
}

TEST(Lp, InfeasibleDetected)
{
    // x <= 1 and x >= 2 cannot both hold.
    Problem p;
    int x = p.addVariable(0.0, kInf, 1.0);
    p.addConstraint({{x, 1.0}}, Relation::LessEqual, 1.0);
    p.addConstraint({{x, 1.0}}, Relation::GreaterEqual, 2.0);
    Solution s = Solver().solve(p);
    EXPECT_EQ(s.status, Status::Infeasible);
}

TEST(Lp, InfeasibleEqualitySystem)
{
    Problem p;
    int x = p.addVariable(0.0, kInf, 0.0);
    int y = p.addVariable(0.0, kInf, 0.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 2.0);
    Solution s = Solver().solve(p);
    EXPECT_EQ(s.status, Status::Infeasible);
}

TEST(Lp, UnboundedDetected)
{
    // min -x with x unbounded above.
    Problem p;
    p.addVariable(0.0, kInf, -1.0);
    Solution s = Solver().solve(p);
    EXPECT_EQ(s.status, Status::Unbounded);
}

TEST(Lp, BoundedByRayConstraint)
{
    // min x - y s.t. x - y >= -1: the objective equals the
    // constrained quantity, so the optimum is exactly -1.
    Problem p;
    int x = p.addVariable(0.0, kInf, 1.0);
    int y = p.addVariable(0.0, kInf, -1.0);
    p.addConstraint({{x, 1.0}, {y, -1.0}}, Relation::GreaterEqual,
                    -1.0);
    Solution s = Solver().solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, -1.0, 1e-9);
}

TEST(Lp, UnboundedAlongRay)
{
    // min -x - y s.t. x - y <= 1: grow y (and x with it) without
    // bound along the ray x = y + 1.
    Problem p;
    int x = p.addVariable(0.0, kInf, -1.0);
    int y = p.addVariable(0.0, kInf, -1.0);
    p.addConstraint({{x, 1.0}, {y, -1.0}}, Relation::LessEqual, 1.0);
    Solution s = Solver().solve(p);
    EXPECT_EQ(s.status, Status::Unbounded);
}

TEST(Lp, UpperBoundsBecomeBinding)
{
    // max x + y with x, y in [0, 2] and x + y <= 3.
    Problem p;
    int x = p.addVariable(0.0, 2.0, -1.0);
    int y = p.addVariable(0.0, 2.0, -1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::LessEqual, 3.0);
    Solution s = Solver().solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, -3.0, 1e-9);
}

TEST(Lp, ShiftedLowerBounds)
{
    // min x + y with x >= 1, y >= 2, x + y >= 5.
    Problem p;
    int x = p.addVariable(1.0, kInf, 1.0);
    int y = p.addVariable(2.0, kInf, 1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::GreaterEqual, 5.0);
    Solution s = Solver().solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, 5.0, 1e-9);
    EXPECT_GE(s.x[x], 1.0 - 1e-9);
    EXPECT_GE(s.x[y], 2.0 - 1e-9);
}

TEST(Lp, NegativeRhsNormalization)
{
    // min x s.t. -x <= -3  (i.e. x >= 3).
    Problem p;
    int x = p.addVariable(0.0, kInf, 1.0);
    p.addConstraint({{x, -1.0}}, Relation::LessEqual, -3.0);
    Solution s = Solver().solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, 3.0, 1e-9);
}

TEST(Lp, HomogeneousRowsNeedNoPhaseOne)
{
    // min sum x s.t. x_{i+1} - x_i >= 0: every row has a zero
    // right-hand side, is negated to <= and starts with a basic
    // slack, so the origin is optimal without a single pivot.
    Solver::Options options;
    options.maxPivots = 1;
    for (int k : {2, 5, 20}) {
        Problem p;
        std::vector<int> xs;
        for (int i = 0; i <= k; ++i)
            xs.push_back(p.addVariable(0.0, kInf, 1.0));
        for (int i = 0; i < k; ++i)
            p.addConstraint({{xs[i + 1], 1.0}, {xs[i], -1.0}},
                            Relation::GreaterEqual, 0.0);
        Solution s = Solver(options).solve(p);
        EXPECT_STREQ(toString(s.status), "optimal") << "k = " << k;
        EXPECT_EQ(s.objective, 0.0) << "k = " << k;
    }
}

TEST(Lp, RepeatedTermsAccumulate)
{
    // x + x <= 4 means 2x <= 4.
    Problem p;
    int x = p.addVariable(0.0, kInf, -1.0);
    p.addConstraint({{x, 1.0}, {x, 1.0}}, Relation::LessEqual, 4.0);
    Solution s = Solver().solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.x[x], 2.0, 1e-9);
}

TEST(Lp, DegenerateProblemStillSolves)
{
    // Several redundant constraints intersecting at the optimum.
    Problem p;
    int x = p.addVariable(0.0, kInf, -1.0);
    int y = p.addVariable(0.0, kInf, -1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::LessEqual, 2.0);
    p.addConstraint({{x, 2.0}, {y, 2.0}}, Relation::LessEqual, 4.0);
    p.addConstraint({{x, 1.0}}, Relation::LessEqual, 2.0);
    p.addConstraint({{y, 1.0}}, Relation::LessEqual, 2.0);
    Solution s = Solver().solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, -2.0, 1e-9);
}

TEST(Lp, TransportationProblem)
{
    // Two supplies (10, 20), two demands (15, 15); costs
    // c11=1 c12=4 c21=2 c22=1. Optimum: x11=10, x21=5, x22=15,
    // cost 10 + 10 + 15 = 35.
    Problem p;
    int x11 = p.addVariable(0.0, kInf, 1.0);
    int x12 = p.addVariable(0.0, kInf, 4.0);
    int x21 = p.addVariable(0.0, kInf, 2.0);
    int x22 = p.addVariable(0.0, kInf, 1.0);
    p.addConstraint({{x11, 1.0}, {x12, 1.0}}, Relation::Equal, 10.0);
    p.addConstraint({{x21, 1.0}, {x22, 1.0}}, Relation::Equal, 20.0);
    p.addConstraint({{x11, 1.0}, {x21, 1.0}}, Relation::Equal, 15.0);
    p.addConstraint({{x12, 1.0}, {x22, 1.0}}, Relation::Equal, 15.0);
    Solution s = Solver().solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, 35.0, 1e-9);
}

TEST(Lp, SolutionSatisfiesConstraints)
{
    Problem p;
    int x = p.addVariable(0.0, 10.0, -2.0);
    int y = p.addVariable(0.0, 10.0, -3.0);
    int z = p.addVariable(0.0, 10.0, -1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}, {z, 1.0}},
                    Relation::LessEqual, 12.0);
    p.addConstraint({{x, 2.0}, {y, 1.0}}, Relation::LessEqual, 14.0);
    p.addConstraint({{y, 3.0}, {z, 1.0}}, Relation::LessEqual, 15.0);
    Solution s = Solver().solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_LE(s.x[x] + s.x[y] + s.x[z], 12.0 + 1e-6);
    EXPECT_LE(2 * s.x[x] + s.x[y], 14.0 + 1e-6);
    EXPECT_LE(3 * s.x[y] + s.x[z], 15.0 + 1e-6);
}

TEST(Lp, StatusNames)
{
    EXPECT_STREQ(toString(Status::Optimal), "optimal");
    EXPECT_STREQ(toString(Status::Infeasible), "infeasible");
    EXPECT_STREQ(toString(Status::Unbounded), "unbounded");
    EXPECT_STREQ(toString(Status::IterationLimit), "iteration-limit");
}

TEST(Lp, ProblemAccessors)
{
    Problem p;
    int x = p.addVariable(1.0, 5.0, 2.5, "x");
    EXPECT_EQ(p.numVariables(), 1);
    EXPECT_DOUBLE_EQ(p.lowerBound(x), 1.0);
    EXPECT_DOUBLE_EQ(p.upperBound(x), 5.0);
    EXPECT_DOUBLE_EQ(p.objective(x), 2.5);
    EXPECT_EQ(p.name(x), "x");
    p.addConstraint({{x, 1.0}}, Relation::LessEqual, 3.0);
    EXPECT_EQ(p.numConstraints(), 1);
}

/** Parameterized scaling check: chained constraints of growing size. */
class LpChain : public ::testing::TestWithParam<int>
{};

TEST_P(LpChain, SolvesChainedProblem)
{
    // min sum x_i s.t. x_i + x_{i+1} >= 1 for all i. Optimum is
    // picking alternate variables: ceil(n/2) * ... actually the LP
    // relaxation allows x_i = 0.5 everywhere: objective n/2.
    int n = GetParam();
    Problem p;
    std::vector<int> xs;
    for (int i = 0; i < n; ++i)
        xs.push_back(p.addVariable(0.0, kInf, 1.0));
    for (int i = 0; i + 1 < n; ++i)
        p.addConstraint({{xs[i], 1.0}, {xs[i + 1], 1.0}},
                        Relation::GreaterEqual, 1.0);
    Solution s = Solver().solve(p);
    ASSERT_TRUE(s.optimal());
    // LP optimum of the path-cover relaxation is floor(n/2) * 1 when
    // alternating 0/1 beats 0.5s; both give (n-1) pairs covered. The
    // optimum is ceil((n-1)/2) * ... verify objective is within the
    // known range [floor(n/2) * 0.5 * 2, n/2].
    EXPECT_LE(s.objective, n / 2.0 + 1e-6);
    EXPECT_GE(s.objective, (n - 1) / 2.0 - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LpChain,
                         ::testing::Values(2, 3, 5, 10, 25, 50));

} // anonymous namespace
} // namespace lp
} // namespace hilp
