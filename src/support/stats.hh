/**
 * @file
 * Small statistics helpers used by the power-law fitting code.
 */

#ifndef HILP_SUPPORT_STATS_HH
#define HILP_SUPPORT_STATS_HH

#include <vector>

namespace hilp {

/** Arithmetic mean; returns 0 for an empty input. */
double mean(const std::vector<double> &xs);

/** Sum of all elements. */
double sum(const std::vector<double> &xs);

/**
 * Result of an ordinary-least-squares fit y = slope * x + intercept.
 */
struct LinearFit
{
    double slope = 0.0;
    double intercept = 0.0;
    /** Coefficient of determination in [0, 1]. */
    double r2 = 0.0;
};

/**
 * Ordinary least-squares straight-line fit. Requires at least two
 * points; with exactly two points r2 is 1 by construction.
 */
LinearFit linearFit(const std::vector<double> &xs,
                    const std::vector<double> &ys);

} // namespace hilp

#endif // HILP_SUPPORT_STATS_HH
