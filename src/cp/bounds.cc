#include "bounds.hh"

#include <algorithm>
#include <cmath>

#include "lp/lp.hh"
#include "support/logging.hh"

namespace hilp {
namespace cp {

CriticalPathData
criticalPathData(const Model &model)
{
    std::vector<int> order = model.topologicalOrder();
    CriticalPathData data;
    data.head.assign(model.numTasks(), 0);
    data.tail.assign(model.numTasks(), 0);
    for (int t : order) {
        Time head = 0;
        for (int p : model.predecessors(t))
            head = std::max(head, data.head[p] + model.minDuration(p));
        for (const Model::LagEdge &edge : model.lagPredecessors(t))
            head = std::max(head, data.head[edge.other] + edge.lag);
        data.head[t] = head;
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        int t = *it;
        // tail[t] lower-bounds the time from the start of t to the
        // end of the schedule.
        Time tail = model.minDuration(t);
        for (int s : model.successors(t))
            tail = std::max(tail, model.minDuration(t) + data.tail[s]);
        for (const Model::LagEdge &edge : model.lagSuccessors(t))
            tail = std::max(tail, edge.lag + data.tail[edge.other]);
        data.tail[t] = tail;
    }
    return data;
}

Time
LowerBounds::best() const
{
    return std::max({criticalPath, groupLoad, resourceEnergy,
                     lpRelaxation});
}

namespace {

/** Longest head + tail across all tasks. */
Time
criticalPathBound(const Model &model, const CriticalPathData &cp)
{
    Time best = 0;
    for (int t = 0; t < model.numTasks(); ++t)
        best = std::max(best, cp.head[t] + cp.tail[t]);
    return best;
}

/**
 * For each group, the total minimum duration of tasks all of whose
 * modes run on that group: those tasks must serialize there.
 */
Time
groupLoadBound(const Model &model)
{
    std::vector<Time> load(model.numGroups(), 0);
    for (int t = 0; t < model.numTasks(); ++t) {
        const Task &task = model.task(t);
        int group = task.modes[0].group;
        bool pinned = group != kNoGroup;
        Time min_d = task.modes[0].duration;
        for (const Mode &mode : task.modes) {
            pinned = pinned && mode.group == group;
            min_d = std::min(min_d, mode.duration);
        }
        if (pinned)
            load[group] += min_d;
    }
    Time best = 0;
    for (Time l : load)
        best = std::max(best, l);
    return best;
}

/**
 * For each cumulative resource, the minimum possible total energy
 * (usage * duration) divided by capacity is a bound on the number of
 * time steps needed.
 */
Time
resourceEnergyBound(const Model &model)
{
    Time best = 0;
    for (int r = 0; r < model.numResources(); ++r) {
        double cap = model.capacity(r);
        if (cap <= 0.0)
            continue;
        double energy = 0.0;
        for (int t = 0; t < model.numTasks(); ++t) {
            const Task &task = model.task(t);
            double min_e = -1.0;
            for (const Mode &mode : task.modes) {
                double e = mode.usage[r] *
                           static_cast<double>(mode.duration);
                if (min_e < 0.0 || e < min_e)
                    min_e = e;
            }
            energy += std::max(0.0, min_e);
        }
        Time bound = static_cast<Time>(std::ceil(energy / cap - 1e-9));
        best = std::max(best, bound);
    }
    return best;
}

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
lpRelaxationBound(const Model &model)
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

} // anonymous namespace

LowerBounds
computeLowerBounds(const Model &model, bool use_lp)
{
    LowerBounds bounds;
    CriticalPathData cp = criticalPathData(model);
    bounds.criticalPath = criticalPathBound(model, cp);
    bounds.groupLoad = groupLoadBound(model);
    bounds.resourceEnergy = resourceEnergyBound(model);
    if (use_lp)
        bounds.lpRelaxation = lpRelaxationBound(model);
    return bounds;
}

} // namespace cp
} // namespace hilp
