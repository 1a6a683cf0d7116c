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

/** True when no resource usage of the mode exceeds its capacity. */
bool
fits(const Model &model, const Mode &mode)
{
    for (int r = 0; r < model.numResources(); ++r)
        if (mode.usage[r] > model.capacity(r) + 1e-9)
            return false;
    return true;
}

/**
 * LP relaxation of the makespan. Directly stated, it has a fractional
 * mode choice x_tm >= 0 per usable mode, start bounds e_t >= 0 and
 * the makespan M, with D_t = sum_m d_tm x_tm and
 *   sum_m x_tm = 1                                  (convexity)
 *   e_t >= e_p + D_p                for edges p->t  (precedence)
 *   e_t >= e_p + lag                for lags p->t   (start lag)
 *   M   >= e_t + D_t                                (completion)
 *   sum_{t,m in g} d_tm x_tm <= M                   (group load)
 *   sum_{t,m} d_tm u_tmr x_tm <= cap_r * M          (resource energy)
 * minimising M. Any feasible schedule of makespan T yields a feasible
 * point with M = T, so the optimum lower-bounds the integer optimum.
 * A mode whose usage exceeds a capacity can never run: it gets no
 * column, and a task left with none makes the relaxation infeasible
 * (bound 0).
 *
 * The same LP is built around a point that is already feasible, so
 * the simplex starts with the slack of nearly every row basic:
 *  - Each task's shortest usable mode r(t) (the first on ties), of
 *    duration dmin_t, is eliminated through the convexity row:
 *    x_{t,r(t)} = 1 - sum y_tm over its other usable modes, so
 *    D_t = dmin_t + sum (d_tm - dmin_t) y_tm, and the convexity row
 *    becomes sum y_tm <= 1 (none with one usable mode).
 *  - Any mode mix has D_t >= dmin_t, so the precedence and lag rows
 *    imply e_t >= h_t, the head over dmin-weighted edges and lags
 *    (floored at 0), and the completion rows imply
 *    M >= M0 = max_t (h_t + dmin_t). The shifts e_t = h_t + f_t and
 *    M = M0 + M' with f_t, M' >= 0 therefore cut off no point.
 *  - A finish-to-start successor s implies t's completion row,
 *    M >= e_s + D_s >= e_s >= e_t + D_t, as D_s >= 0, so that row is
 *    dropped. A start-lag successor implies nothing about t's end.
 * Every precedence, lag, completion and convexity row then reads
 * a.(y, f, M') <= b with b >= 0, which y = f = M' = 0 satisfies. Only
 * a group or energy row whose load with every task on r(t) exceeds
 * what M0 allows has b < 0 and costs a phase-1 artificial. The
 * optimum is the direct form's, M0 + min M'.
 */
Time
lpRelaxationBound(const Model &model)
{
    const int n = model.numTasks();
    lp::Problem problem;

    // The shortest usable mode of each task, and a column y_tm for
    // each of its other usable modes.
    struct Column
    {
        int var;
        const Mode *mode;
    };
    std::vector<const Mode *> fastest(n);
    std::vector<std::vector<Column>> y(n);
    std::vector<const Mode *> usable;
    for (int t = 0; t < n; ++t) {
        usable.clear();
        for (const Mode &mode : model.task(t).modes)
            if (fits(model, mode))
                usable.push_back(&mode);
        if (usable.empty())
            return 0;
        fastest[t] = *std::min_element(
            usable.begin(), usable.end(),
            [](const Mode *a, const Mode *b) {
                return a->duration < b->duration;
            });
        for (const Mode *mode : usable)
            if (mode != fastest[t])
                y[t].push_back(
                    {problem.addVariable(0.0, lp::kInf, 0.0), mode});
    }
    // Heads over the shortest usable durations, and M0.
    std::vector<Time> head(n, 0);
    Time m0 = 0;
    for (int t : model.topologicalOrder()) {
        for (int p : model.predecessors(t))
            head[t] = std::max(head[t], head[p] + fastest[p]->duration);
        for (const Model::LagEdge &edge : model.lagPredecessors(t))
            head[t] = std::max(head[t], head[edge.other] + edge.lag);
        m0 = std::max(m0, head[t] + fastest[t]->duration);
    }
    // Start-bound shifts f_t, and the makespan shift M'.
    std::vector<int> f(n);
    for (int t = 0; t < n; ++t)
        f[t] = problem.addVariable(0.0, lp::kInf, 0.0);
    const int extra_m = problem.addVariable(0.0, lp::kInf, 1.0);

    // D_t - dmin_t as terms over y_t.
    auto addExtra = [&](std::vector<lp::Term> &terms, int t) {
        for (const Column &col : y[t]) {
            Time delta = col.mode->duration - fastest[t]->duration;
            if (delta > 0)
                terms.push_back({col.var, static_cast<double>(delta)});
        }
    };

    // Convexity: sum y_tm <= 1.
    for (int t = 0; t < n; ++t) {
        if (y[t].empty())
            continue;
        std::vector<lp::Term> terms;
        for (const Column &col : y[t])
            terms.push_back({col.var, 1.0});
        problem.addConstraint(std::move(terms), lp::Relation::LessEqual,
                              1.0);
    }
    for (int p = 0; p < n; ++p) {
        // Precedence: f_p - f_t + (D_p - dmin_p) <= h_t - h_p - dmin_p.
        for (int t : model.successors(p)) {
            std::vector<lp::Term> terms{{f[p], 1.0}, {f[t], -1.0}};
            addExtra(terms, p);
            problem.addConstraint(
                std::move(terms), lp::Relation::LessEqual,
                head[t] - head[p] - fastest[p]->duration);
        }
        // Start lags: f_p - f_t <= h_t - h_p - lag.
        for (const Model::LagEdge &edge : model.lagSuccessors(p)) {
            problem.addConstraint({{f[p], 1.0}, {f[edge.other], -1.0}},
                                  lp::Relation::LessEqual,
                                  head[edge.other] - head[p] - edge.lag);
        }
    }
    // Completion of each task without a finish-to-start successor:
    // f_t + (D_t - dmin_t) - M' <= M0 - h_t - dmin_t.
    for (int t = 0; t < n; ++t) {
        if (!model.successors(t).empty())
            continue;
        std::vector<lp::Term> terms{{f[t], 1.0}};
        addExtra(terms, t);
        terms.push_back({extra_m, -1.0});
        problem.addConstraint(std::move(terms), lp::Relation::LessEqual,
                              m0 - head[t] - fastest[t]->duration);
    }
    // Load rows, sum_{t,m} w(m) x_tm <= cap * M, with w a mode's
    // duration on one group (cap 1) or its energy on one resource.
    // With every task on r(t) the load is `base`, and y_tm adds
    // w(m) - w(r(t)); so the row reads
    // sum (w(m) - w(r(t))) y_tm - cap M' <= cap M0 - base. A row
    // whose usable modes all have zero load holds everywhere.
    auto addLoadRow = [&](auto load, double cap) {
        bool loaded = false;
        double base = 0.0;
        std::vector<lp::Term> terms;
        for (int t = 0; t < n; ++t) {
            const double w0 = load(*fastest[t]);
            loaded = loaded || w0 > 0.0;
            base += w0;
            for (const Column &col : y[t]) {
                const double w = load(*col.mode);
                loaded = loaded || w > 0.0;
                if (w != w0)
                    terms.push_back({col.var, w - w0});
            }
        }
        if (!loaded)
            return;
        terms.push_back({extra_m, -cap});
        problem.addConstraint(std::move(terms), lp::Relation::LessEqual,
                              cap * m0 - base);
    };
    for (int g = 0; g < model.numGroups(); ++g) {
        addLoadRow(
            [g](const Mode &mode) {
                return mode.group == g
                    ? static_cast<double>(mode.duration) : 0.0;
            },
            1.0);
    }
    for (int r = 0; r < model.numResources(); ++r) {
        if (model.capacity(r) <= 0.0)
            continue;
        addLoadRow(
            [r](const Mode &mode) {
                return mode.usage[r] * static_cast<double>(mode.duration);
            },
            model.capacity(r));
    }

    lp::Solver solver;
    lp::Solution sol = solver.solve(problem);
    if (!sol.optimal())
        return 0; // Infeasible relaxation cases are caught elsewhere.
    return static_cast<Time>(std::ceil(m0 + sol.objective - 1e-6));
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
