#include "lp.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace hilp {
namespace lp {

const char *
toString(Status status)
{
    switch (status) {
      case Status::Optimal:
        return "optimal";
      case Status::Infeasible:
        return "infeasible";
      case Status::Unbounded:
        return "unbounded";
      case Status::IterationLimit:
        return "iteration-limit";
    }
    return "unknown";
}

int
Problem::addVariable(double lb, double ub, double obj, std::string name)
{
    hilp_assert(std::isfinite(lb));
    hilp_assert(ub >= lb);
    lb_.push_back(lb);
    ub_.push_back(ub);
    obj_.push_back(obj);
    names_.push_back(std::move(name));
    return static_cast<int>(lb_.size()) - 1;
}

void
Problem::addConstraint(std::vector<Term> terms, Relation rel, double rhs)
{
    for (const Term &t : terms)
        hilp_assert(t.var >= 0 && t.var < numVariables());
    rows_.push_back(std::move(terms));
    rels_.push_back(rel);
    rhs_.push_back(rhs);
}

namespace {

/**
 * Dense simplex tableau. Row layout: m constraint rows followed by
 * one cost row; column layout: structural + slack/artificial columns
 * followed by the right-hand side.
 */
struct Tableau
{
    int m = 0;            //!< Constraint rows.
    int ncols = 0;        //!< Columns excluding the rhs.
    std::vector<std::vector<double>> a;  //!< m rows of ncols + 1.
    std::vector<double> cost;            //!< ncols + 1 (rhs = -z).
    std::vector<int> basis;              //!< Basic column per row.
    std::vector<bool> artificial;        //!< Per-column artificial flag.

    double &rhs(int row) { return a[row][ncols]; }
    double rhsVal(int row) const { return a[row][ncols]; }

    /** Pivot on (row, col): col becomes basic in row. */
    void
    pivot(int row, int col)
    {
        double p = a[row][col];
        for (int j = 0; j <= ncols; ++j)
            a[row][j] /= p;
        a[row][col] = 1.0; // exact
        for (int i = 0; i < m; ++i) {
            if (i == row)
                continue;
            double f = a[i][col];
            if (f == 0.0)
                continue;
            for (int j = 0; j <= ncols; ++j)
                a[i][j] -= f * a[row][j];
            a[i][col] = 0.0; // exact
        }
        double f = cost[col];
        if (f != 0.0) {
            for (int j = 0; j <= ncols; ++j)
                cost[j] -= f * a[row][j];
            cost[col] = 0.0;
        }
        basis[row] = col;
    }

    /**
     * Install reduced costs for objective coefficients c over the
     * current basis: cost_j = c_j - c_B^T B^{-1} A_j, where the
     * tableau rows already hold B^{-1} A.
     */
    void
    setObjective(const std::vector<double> &c)
    {
        hilp_assert(static_cast<int>(c.size()) == ncols);
        for (int j = 0; j < ncols; ++j)
            cost[j] = c[j];
        cost[ncols] = 0.0;
        for (int i = 0; i < m; ++i) {
            double cb = c[basis[i]];
            if (cb == 0.0)
                continue;
            for (int j = 0; j <= ncols; ++j)
                cost[j] -= cb * a[i][j];
            cost[basis[i]] = 0.0;
        }
    }
};

/** Result of a simplex phase. */
enum class PhaseResult { Optimal, Unbounded, IterationLimit };

/**
 * Run primal simplex iterations on the tableau until optimality,
 * unboundedness, or the pivot budget is spent. Columns flagged in
 * blocked may never enter the basis (used to keep artificials out in
 * phase 2).
 */
PhaseResult
runSimplex(Tableau &t, const std::vector<bool> &blocked, double eps,
           int &pivot_budget, int bland_threshold)
{
    int stalled = 0;
    bool use_bland = false;
    double last_obj = -t.cost[t.ncols];
    while (pivot_budget > 0) {
        // Entering column.
        int enter = -1;
        if (use_bland) {
            for (int j = 0; j < t.ncols; ++j) {
                if (!blocked[j] && t.cost[j] < -eps) {
                    enter = j;
                    break;
                }
            }
        } else {
            double best = -eps;
            for (int j = 0; j < t.ncols; ++j) {
                if (!blocked[j] && t.cost[j] < best) {
                    best = t.cost[j];
                    enter = j;
                }
            }
        }
        if (enter < 0)
            return PhaseResult::Optimal;

        // Ratio test; Bland tie-break on the basis variable index.
        int leave = -1;
        double best_ratio = 0.0;
        for (int i = 0; i < t.m; ++i) {
            double aij = t.a[i][enter];
            if (aij <= eps)
                continue;
            double ratio = t.rhsVal(i) / aij;
            if (leave < 0 || ratio < best_ratio - eps ||
                (ratio < best_ratio + eps && t.basis[i] < t.basis[leave])) {
                leave = i;
                best_ratio = ratio;
            }
        }
        if (leave < 0)
            return PhaseResult::Unbounded;

        t.pivot(leave, enter);
        --pivot_budget;

        double obj = -t.cost[t.ncols];
        if (obj < last_obj - eps) {
            stalled = 0;
            last_obj = obj;
        } else if (++stalled >= bland_threshold) {
            use_bland = true;
        }
    }
    return PhaseResult::IterationLimit;
}

} // anonymous namespace

Solution
Solver::solve(const Problem &problem) const
{
    const double eps = options_.eps;
    const int n = problem.numVariables();

    // Shift every variable to x = lb + x' with x' >= 0, and turn
    // finite upper bounds into explicit constraints.
    std::vector<double> shift(n);
    double obj_const = 0.0;
    for (int j = 0; j < n; ++j) {
        shift[j] = problem.lowerBound(j);
        obj_const += problem.objective(j) * shift[j];
    }

    struct Row
    {
        std::vector<double> coeffs;
        Relation rel;
        double rhs;
    };
    std::vector<Row> rows;
    rows.reserve(problem.numConstraints() + n);
    for (int i = 0; i < problem.numConstraints(); ++i) {
        Row row;
        row.coeffs.assign(n, 0.0);
        double shift_sum = 0.0;
        for (const Term &term : problem.rows_[i]) {
            row.coeffs[term.var] += term.coeff;
            shift_sum += term.coeff * shift[term.var];
        }
        row.rel = problem.rels_[i];
        row.rhs = problem.rhs_[i] - shift_sum;
        rows.push_back(std::move(row));
    }
    for (int j = 0; j < n; ++j) {
        double ub = problem.upperBound(j);
        if (std::isinf(ub))
            continue;
        Row row;
        row.coeffs.assign(n, 0.0);
        row.coeffs[j] = 1.0;
        row.rel = Relation::LessEqual;
        row.rhs = ub - shift[j];
        rows.push_back(std::move(row));
    }

    // Normalize to non-negative right-hand sides, and turn a >= row
    // with a zero right-hand side into <= as well: its slack then
    // starts basic at zero. Only = rows and >= rows with a positive
    // right-hand side are left needing an artificial.
    for (Row &row : rows) {
        if (row.rhs < 0.0 ||
            (row.rhs == 0.0 && row.rel == Relation::GreaterEqual)) {
            for (double &c : row.coeffs)
                c = -c;
            row.rhs = -row.rhs;
            if (row.rel == Relation::LessEqual)
                row.rel = Relation::GreaterEqual;
            else if (row.rel == Relation::GreaterEqual)
                row.rel = Relation::LessEqual;
        }
    }

    const int m = static_cast<int>(rows.size());

    // Count auxiliary columns.
    int num_slack = 0;
    int num_artificial = 0;
    for (const Row &row : rows) {
        if (row.rel != Relation::Equal)
            ++num_slack;
        if (row.rel != Relation::LessEqual)
            ++num_artificial;
    }

    Tableau t;
    t.m = m;
    t.ncols = n + num_slack + num_artificial;
    t.a.assign(m, std::vector<double>(t.ncols + 1, 0.0));
    t.cost.assign(t.ncols + 1, 0.0);
    t.basis.assign(m, -1);
    t.artificial.assign(t.ncols, false);

    int slack_col = n;
    int art_col = n + num_slack;
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j)
            t.a[i][j] = rows[i].coeffs[j];
        t.rhs(i) = rows[i].rhs;
        switch (rows[i].rel) {
          case Relation::LessEqual:
            t.a[i][slack_col] = 1.0;
            t.basis[i] = slack_col++;
            break;
          case Relation::GreaterEqual:
            t.a[i][slack_col] = -1.0;
            ++slack_col;
            t.a[i][art_col] = 1.0;
            t.artificial[art_col] = true;
            t.basis[i] = art_col++;
            break;
          case Relation::Equal:
            t.a[i][art_col] = 1.0;
            t.artificial[art_col] = true;
            t.basis[i] = art_col++;
            break;
        }
    }

    Solution sol;
    int pivot_budget = options_.maxPivots;
    std::vector<bool> never_blocked(t.ncols, false);

    // Phase 1: minimize the sum of artificial variables.
    if (num_artificial > 0) {
        std::vector<double> phase1_cost(t.ncols, 0.0);
        for (int j = 0; j < t.ncols; ++j)
            if (t.artificial[j])
                phase1_cost[j] = 1.0;
        t.setObjective(phase1_cost);
        PhaseResult pr = runSimplex(t, never_blocked, eps, pivot_budget,
                                    options_.blandThreshold);
        if (pr == PhaseResult::IterationLimit) {
            sol.status = Status::IterationLimit;
            return sol;
        }
        double phase1_obj = -t.cost[t.ncols];
        if (phase1_obj > 1e-7) {
            sol.status = Status::Infeasible;
            return sol;
        }
        // Drive any artificial that is still basic (at value zero)
        // out of the basis if a non-artificial pivot exists.
        for (int i = 0; i < m; ++i) {
            if (!t.artificial[t.basis[i]])
                continue;
            int pivot_col = -1;
            for (int j = 0; j < t.ncols; ++j) {
                if (!t.artificial[j] && std::fabs(t.a[i][j]) > eps) {
                    pivot_col = j;
                    break;
                }
            }
            if (pivot_col >= 0)
                t.pivot(i, pivot_col);
            // Otherwise the row is redundant; the artificial stays
            // basic at zero and is blocked from moving in phase 2.
        }
    }

    // Phase 2: original objective; artificials may never re-enter.
    std::vector<double> phase2_cost(t.ncols, 0.0);
    for (int j = 0; j < n; ++j)
        phase2_cost[j] = problem.objective(j);
    t.setObjective(phase2_cost);
    std::vector<bool> blocked = t.artificial;
    PhaseResult pr = runSimplex(t, blocked, eps, pivot_budget,
                                options_.blandThreshold);
    if (pr == PhaseResult::IterationLimit) {
        sol.status = Status::IterationLimit;
        return sol;
    }
    if (pr == PhaseResult::Unbounded) {
        sol.status = Status::Unbounded;
        return sol;
    }

    sol.status = Status::Optimal;
    sol.x.assign(n, 0.0);
    for (int i = 0; i < m; ++i)
        if (t.basis[i] < n)
            sol.x[t.basis[i]] = t.rhsVal(i);
    for (int j = 0; j < n; ++j)
        sol.x[j] += shift[j];
    sol.objective = -t.cost[t.ncols] + obj_const;
    return sol;
}

} // namespace lp
} // namespace hilp
