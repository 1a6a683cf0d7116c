/** @file Unit tests for the statistics helpers. */

#include <gtest/gtest.h>

#include <vector>

#include "support/stats.hh"

namespace hilp {
namespace {

TEST(Stats, MeanOfEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, MeanBasic)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(Stats, SumBasic)
{
    EXPECT_DOUBLE_EQ(sum({1.5, 2.5, -1.0}), 3.0);
    EXPECT_DOUBLE_EQ(sum({}), 0.0);
}

TEST(Stats, LinearFitExact)
{
    // y = 3x + 1.
    LinearFit fit = linearFit({0, 1, 2, 3}, {1, 4, 7, 10});
    EXPECT_NEAR(fit.slope, 3.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, LinearFitNoisyR2BelowOne)
{
    LinearFit fit = linearFit({0, 1, 2, 3}, {1.0, 4.5, 6.5, 10.0});
    EXPECT_GT(fit.r2, 0.9);
    EXPECT_LT(fit.r2, 1.0);
    EXPECT_NEAR(fit.slope, 2.9, 0.2);
}

TEST(Stats, LinearFitTwoPointsIsExact)
{
    LinearFit fit = linearFit({1, 3}, {5, 9});
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, LinearFitDegenerateVerticalData)
{
    LinearFit fit = linearFit({2, 2, 2}, {1, 2, 3});
    EXPECT_DOUBLE_EQ(fit.slope, 0.0);
    EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
    EXPECT_DOUBLE_EQ(fit.r2, 0.0);
}

} // anonymous namespace
} // namespace hilp
