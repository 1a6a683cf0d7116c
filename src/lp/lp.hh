/**
 * @file
 * A self-contained dense linear-programming solver.
 *
 * HILP's branch-and-bound search certifies its optimality gap with
 * lower bounds, one of which comes from a linear relaxation of the
 * scheduling problem (see cp/bounds.cc). The paper used an external
 * solver stack (MiniZinc + OR-Tools); this module is the from-scratch
 * substitute documented in DESIGN.md.
 *
 * The solver implements the classic two-phase primal simplex method
 * on a dense tableau with a Dantzig pricing rule and a Bland
 * anti-cycling fallback. Problems are expressed as
 *
 *     minimize    c^T x
 *     subject to  a_i^T x (<= | = | >=) b_i     for each constraint i
 *                 lb_j <= x_j <= ub_j           for each variable j
 *
 * Each finite upper bound becomes a row of its own, so a model should
 * leave ub_j = kInf wherever other rows already imply the bound. A row
 * with a negative right-hand side, or a >= row whose right-hand side
 * is zero, is negated, so its slack can start in the basis. Only =
 * rows and >= rows with a positive right-hand side get a phase-1
 * artificial.
 *
 * This is not a high-performance LP code; it is sized for the small,
 * dense relaxations HILP generates (tens to a few hundred variables).
 */

#ifndef HILP_LP_LP_HH
#define HILP_LP_LP_HH

#include <limits>
#include <string>
#include <vector>

namespace hilp {
namespace lp {

/** Positive infinity for unbounded variable bounds. */
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/** Relation of a linear constraint to its right-hand side. */
enum class Relation { LessEqual, Equal, GreaterEqual };

/** Outcome of an LP solve. */
enum class Status {
    Optimal,       //!< Optimal solution found.
    Infeasible,    //!< No feasible point exists.
    Unbounded,     //!< Objective is unbounded below.
    IterationLimit //!< Pivot limit hit before convergence.
};

/** Human-readable name for a Status value. */
const char *toString(Status status);

/** One term of a linear expression: coefficient * variable. */
struct Term
{
    int var;       //!< Variable index from Problem::addVariable().
    double coeff;  //!< Coefficient.
};

/**
 * An LP in construction form. Variables and constraints are added
 * incrementally; the solver converts to standard form internally.
 */
class Problem
{
  public:
    /**
     * Add a variable with bounds [lb, ub] and objective coefficient
     * obj. Returns the variable index. lb must be finite (HILP's
     * relaxations never need free variables); ub may be kInf.
     */
    int addVariable(double lb, double ub, double obj,
                    std::string name = "");

    /** Add the constraint sum(terms) rel rhs. */
    void addConstraint(std::vector<Term> terms, Relation rel, double rhs);

    /** Number of variables added so far. */
    int numVariables() const { return static_cast<int>(lb_.size()); }

    /** Number of constraints added so far. */
    int numConstraints() const { return static_cast<int>(rhs_.size()); }

    /** Lower bound of variable v. */
    double lowerBound(int v) const { return lb_[v]; }

    /** Upper bound of variable v. */
    double upperBound(int v) const { return ub_[v]; }

    /** Objective coefficient of variable v. */
    double objective(int v) const { return obj_[v]; }

    /** Name of variable v (possibly empty). */
    const std::string &name(int v) const { return names_[v]; }

  private:
    friend class Solver;

    std::vector<double> lb_;
    std::vector<double> ub_;
    std::vector<double> obj_;
    std::vector<std::string> names_;

    std::vector<std::vector<Term>> rows_;
    std::vector<Relation> rels_;
    std::vector<double> rhs_;
};

/** Result of a solve: status, objective value, and primal point. */
struct Solution
{
    Status status = Status::Infeasible;
    double objective = 0.0;
    std::vector<double> x;

    /** True when an optimal point was found. */
    bool optimal() const { return status == Status::Optimal; }
};

/**
 * Two-phase dense primal simplex solver.
 */
class Solver
{
  public:
    /** Tunables; the defaults suit HILP's relaxations. */
    struct Options
    {
        /** Feasibility / pivot tolerance. */
        double eps = 1e-9;
        /** Maximum number of pivots across both phases. */
        int maxPivots = 50000;
        /** Pivots of non-improvement before switching to Bland. */
        int blandThreshold = 500;
    };

    Solver() = default;
    explicit Solver(Options options) : options_(options) {}

    /** Solve the problem; the problem object is not modified. */
    Solution solve(const Problem &problem) const;

  private:
    Options options_;
};

} // namespace lp
} // namespace hilp

#endif // HILP_LP_LP_HH
