#include "stats.hh"

#include <numeric>

#include "logging.hh"

namespace hilp {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    return sum(xs) / static_cast<double>(xs.size());
}

double
sum(const std::vector<double> &xs)
{
    return std::accumulate(xs.begin(), xs.end(), 0.0);
}

LinearFit
linearFit(const std::vector<double> &xs, const std::vector<double> &ys)
{
    hilp_assert(xs.size() == ys.size());
    hilp_assert(xs.size() >= 2);
    double mx = mean(xs);
    double my = mean(ys);
    double sxy = 0.0;
    double sxx = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
        sxy += (xs[i] - mx) * (ys[i] - my);
        sxx += (xs[i] - mx) * (xs[i] - mx);
    }
    LinearFit fit;
    if (sxx == 0.0) {
        // Degenerate vertical data; report a flat line through the mean.
        fit.slope = 0.0;
        fit.intercept = my;
        fit.r2 = 0.0;
        return fit;
    }
    fit.slope = sxy / sxx;
    fit.intercept = my - fit.slope * mx;
    double ss_res = 0.0;
    double ss_tot = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
        double pred = fit.slope * xs[i] + fit.intercept;
        ss_res += (ys[i] - pred) * (ys[i] - pred);
        ss_tot += (ys[i] - my) * (ys[i] - my);
    }
    fit.r2 = ss_tot == 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
    if (fit.r2 < 0.0)
        fit.r2 = 0.0;
    return fit;
}

} // namespace hilp
