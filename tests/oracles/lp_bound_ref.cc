#include "oracles/lp_bound_ref.hh"

#include <cmath>
#include <vector>

#include "lp/lp.hh"

namespace hilp {
namespace cp {

/**
 * LP relaxation: fractional mode choice x_tm >= 0, continuous start
 * bounds e_t, and makespan M with
 *   sum_m x_tm = 1                                  (convexity)
 *   e_t >= e_p + sum_m d_pm x_pm    for edges p->t  (precedence)
 *   M   >= e_t + sum_m d_tm x_tm                    (completion)
 *   sum_{t,m in g} d_tm x_tm <= M                   (group load)
 *   sum_{t,m} d_tm u_tmr x_tm <= cap_r * M          (resource energy)
 * Convexity and x >= 0 already imply x_tm <= 1, so x_tm carries no
 * upper bound (a finite one would cost the simplex a row). A mode
 * whose usage exceeds a capacity can never run, so it gets no column
 * and drops out of every row. Any feasible schedule of makespan T
 * yields a feasible LP point with M = T, so the LP optimum
 * lower-bounds the integer optimum.
 */
Time
referenceLpRelaxationBound(const Model &model)
{
    lp::Problem problem;

    // Mode-choice columns, one per usable mode.
    struct Column
    {
        int var;
        const Mode *mode;
    };
    std::vector<std::vector<Column>> x(model.numTasks());
    for (int t = 0; t < model.numTasks(); ++t) {
        for (const Mode &mode : model.task(t).modes) {
            bool usable = true;
            for (int r = 0; r < model.numResources(); ++r) {
                if (mode.usage[r] > model.capacity(r) + 1e-9) {
                    usable = false;
                    break;
                }
            }
            if (usable) {
                x[t].push_back(
                    {problem.addVariable(0.0, lp::kInf, 0.0), &mode});
            }
        }
    }
    // Start-bound variables.
    std::vector<int> e(model.numTasks());
    for (int t = 0; t < model.numTasks(); ++t)
        e[t] = problem.addVariable(0.0, lp::kInf, 0.0);
    // Makespan.
    int big_m = problem.addVariable(0.0, lp::kInf, 1.0);

    // Convexity.
    for (int t = 0; t < model.numTasks(); ++t) {
        std::vector<lp::Term> terms;
        for (const Column &col : x[t])
            terms.push_back({col.var, 1.0});
        problem.addConstraint(std::move(terms), lp::Relation::Equal, 1.0);
    }
    // Precedence: e_t - e_p - sum d_pm x_pm >= 0.
    for (int p = 0; p < model.numTasks(); ++p) {
        for (int t : model.successors(p)) {
            std::vector<lp::Term> terms;
            terms.push_back({e[t], 1.0});
            terms.push_back({e[p], -1.0});
            for (const Column &col : x[p]) {
                terms.push_back({col.var,
                    -static_cast<double>(col.mode->duration)});
            }
            problem.addConstraint(std::move(terms),
                                  lp::Relation::GreaterEqual, 0.0);
        }
        // Start lags: e_t - e_p >= lag.
        for (const Model::LagEdge &edge : model.lagSuccessors(p)) {
            problem.addConstraint({{e[edge.other], 1.0}, {e[p], -1.0}},
                                  lp::Relation::GreaterEqual,
                                  static_cast<double>(edge.lag));
        }
    }
    // Completion: M - e_t - sum d_tm x_tm >= 0.
    for (int t = 0; t < model.numTasks(); ++t) {
        std::vector<lp::Term> terms;
        terms.push_back({big_m, 1.0});
        terms.push_back({e[t], -1.0});
        for (const Column &col : x[t]) {
            terms.push_back({col.var,
                -static_cast<double>(col.mode->duration)});
        }
        problem.addConstraint(std::move(terms),
                              lp::Relation::GreaterEqual, 0.0);
    }
    // Group load: sum d x - M <= 0.
    for (int g = 0; g < model.numGroups(); ++g) {
        std::vector<lp::Term> terms;
        for (int t = 0; t < model.numTasks(); ++t) {
            for (const Column &col : x[t]) {
                if (col.mode->group == g) {
                    terms.push_back({col.var,
                        static_cast<double>(col.mode->duration)});
                }
            }
        }
        if (terms.empty())
            continue;
        terms.push_back({big_m, -1.0});
        problem.addConstraint(std::move(terms),
                              lp::Relation::LessEqual, 0.0);
    }
    // Resource energy: sum d u x - cap * M <= 0.
    for (int r = 0; r < model.numResources(); ++r) {
        double cap = model.capacity(r);
        if (cap <= 0.0)
            continue;
        std::vector<lp::Term> terms;
        for (int t = 0; t < model.numTasks(); ++t) {
            for (const Column &col : x[t]) {
                double coeff = col.mode->usage[r] *
                    static_cast<double>(col.mode->duration);
                if (coeff > 0.0)
                    terms.push_back({col.var, coeff});
            }
        }
        if (terms.empty())
            continue;
        terms.push_back({big_m, -cap});
        problem.addConstraint(std::move(terms),
                              lp::Relation::LessEqual, 0.0);
    }

    lp::Solver solver;
    lp::Solution sol = solver.solve(problem);
    if (!sol.optimal())
        return 0; // Infeasible relaxation cases are caught elsewhere.
    return static_cast<Time>(std::ceil(sol.objective - 1e-6));
}

} // namespace cp
} // namespace hilp
