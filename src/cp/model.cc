#include "model.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/str.hh"

namespace hilp {
namespace cp {

int
Model::addResource(double capacity, std::string name)
{
    hilp_assert(capacity >= 0.0);
    caps_.push_back(capacity);
    resNames_.push_back(name.empty()
        ? format("res%zu", caps_.size() - 1) : std::move(name));
    return static_cast<int>(caps_.size()) - 1;
}

int
Model::addGroup(std::string name)
{
    groupNames_.push_back(name.empty()
        ? format("group%zu", groupNames_.size()) : std::move(name));
    return static_cast<int>(groupNames_.size()) - 1;
}

int
Model::addTask(Task task)
{
    Time minDur = -1;
    Time maxDur = -1;
    for (Mode &mode : task.modes) {
        mode.id = numModes_++;
        minDur = minDur < 0 ? mode.duration
                            : std::min(minDur, mode.duration);
        maxDur = std::max(maxDur, mode.duration);
    }
    minDur_.push_back(minDur);
    maxDur_.push_back(maxDur);
    tasks_.push_back(std::move(task));
    preds_.emplace_back();
    succs_.emplace_back();
    lagPreds_.emplace_back();
    lagSuccs_.emplace_back();
    return static_cast<int>(tasks_.size()) - 1;
}

void
Model::addPrecedence(int before, int after)
{
    hilp_assert(before >= 0 && before < numTasks());
    hilp_assert(after >= 0 && after < numTasks());
    hilp_assert(before != after);
    succs_[before].push_back(after);
    preds_[after].push_back(before);
}

void
Model::addStartLag(int before, int after, Time lag)
{
    hilp_assert(before >= 0 && before < numTasks());
    hilp_assert(after >= 0 && after < numTasks());
    hilp_assert(before != after);
    hilp_assert(lag >= 0);
    lagSuccs_[before].push_back({after, lag});
    lagPreds_[after].push_back({before, lag});
    ++numLagEdges_;
}

void
Model::setHorizon(Time horizon)
{
    hilp_assert(horizon > 0);
    horizon_ = horizon;
}

std::vector<int>
Model::topologicalOrder() const
{
    std::vector<int> indegree(numTasks(), 0);
    for (int t = 0; t < numTasks(); ++t) {
        for (int s : succs_[t])
            ++indegree[s];
        for (const LagEdge &edge : lagSuccs_[t])
            ++indegree[edge.other];
    }
    std::vector<int> order;
    order.reserve(numTasks());
    std::vector<int> frontier;
    for (int t = 0; t < numTasks(); ++t)
        if (indegree[t] == 0)
            frontier.push_back(t);
    while (!frontier.empty()) {
        int t = frontier.back();
        frontier.pop_back();
        order.push_back(t);
        for (int s : succs_[t])
            if (--indegree[s] == 0)
                frontier.push_back(s);
        for (const LagEdge &edge : lagSuccs_[t])
            if (--indegree[edge.other] == 0)
                frontier.push_back(edge.other);
    }
    if (static_cast<int>(order.size()) != numTasks())
        panic("topologicalOrder() called on a cyclic precedence graph");
    return order;
}

std::string
Model::validate() const
{
    if (horizon_ <= 0)
        return "horizon must be positive";
    for (int t = 0; t < numTasks(); ++t) {
        const Task &task = tasks_[t];
        if (task.modes.empty())
            return format("task %d (%s) has no modes", t,
                          task.name.c_str());
        for (size_t m = 0; m < task.modes.size(); ++m) {
            const Mode &mode = task.modes[m];
            if (mode.duration < 0)
                return format("task %d mode %zu has negative duration",
                              t, m);
            if (mode.group != kNoGroup &&
                (mode.group < 0 || mode.group >= numGroups())) {
                return format("task %d mode %zu references invalid "
                              "group %d", t, m, mode.group);
            }
            if (static_cast<int>(mode.usage.size()) != numResources())
                return format("task %d mode %zu has %zu usage entries "
                              "but the model has %d resources",
                              t, m, mode.usage.size(), numResources());
            for (double u : mode.usage)
                if (u < 0.0)
                    return format("task %d mode %zu has negative usage",
                                  t, m);
        }
    }
    // Cycle check via Kahn's algorithm over both edge kinds.
    std::vector<int> indegree(numTasks(), 0);
    for (int t = 0; t < numTasks(); ++t) {
        for (int s : succs_[t])
            ++indegree[s];
        for (const LagEdge &edge : lagSuccs_[t])
            ++indegree[edge.other];
    }
    std::vector<int> frontier;
    for (int t = 0; t < numTasks(); ++t)
        if (indegree[t] == 0)
            frontier.push_back(t);
    int visited = 0;
    while (!frontier.empty()) {
        int t = frontier.back();
        frontier.pop_back();
        ++visited;
        for (int s : succs_[t])
            if (--indegree[s] == 0)
                frontier.push_back(s);
        for (const LagEdge &edge : lagSuccs_[t])
            if (--indegree[edge.other] == 0)
                frontier.push_back(edge.other);
    }
    if (visited != numTasks())
        return "precedence graph has a cycle";
    return "";
}

Time
ScheduleVec::end(const Model &m, int t) const
{
    const Assignment &a = tasks[t];
    hilp_assert(a.scheduled());
    return a.start + m.task(t).modes[a.mode].duration;
}

Time
ScheduleVec::makespan(const Model &m) const
{
    Time best = 0;
    for (int t = 0; t < static_cast<int>(tasks.size()); ++t)
        if (tasks[t].scheduled())
            best = std::max(best, end(m, t));
    return best;
}

std::string
checkSchedule(const Model &model, const ScheduleVec &schedule)
{
    const double eps = 1e-6;
    if (static_cast<int>(schedule.tasks.size()) != model.numTasks())
        return "schedule size does not match the model";
    for (int t = 0; t < model.numTasks(); ++t) {
        const Assignment &a = schedule.tasks[t];
        if (!a.scheduled())
            return format("task %d is unscheduled", t);
        if (a.mode < 0 ||
            a.mode >= static_cast<int>(model.task(t).modes.size()))
            return format("task %d has invalid mode %d", t, a.mode);
        if (a.start < 0)
            return format("task %d starts before time 0", t);
        if (schedule.end(model, t) > model.horizon())
            return format("task %d ends after the horizon", t);
    }
    // Precedence.
    for (int t = 0; t < model.numTasks(); ++t)
        for (int s : model.successors(t))
            if (schedule.tasks[s].start < schedule.end(model, t))
                return format("precedence %d -> %d violated", t, s);
    // Start-to-start lags.
    for (int t = 0; t < model.numTasks(); ++t) {
        for (const Model::LagEdge &edge : model.lagSuccessors(t)) {
            if (schedule.tasks[edge.other].start <
                schedule.tasks[t].start + edge.lag) {
                return format("start lag %d -> %d (lag %d) violated",
                              t, edge.other, edge.lag);
            }
        }
    }
    // Disjunctive groups and cumulative resources, step by step, on
    // one set of per-step tallies.
    Time makespan = schedule.makespan(model);
    std::vector<int> group_busy(model.numGroups());
    std::vector<double> res_used(model.numResources());
    for (Time step = 0; step < makespan; ++step) {
        std::fill(group_busy.begin(), group_busy.end(), -1);
        std::fill(res_used.begin(), res_used.end(), 0.0);
        for (int t = 0; t < model.numTasks(); ++t) {
            const Assignment &a = schedule.tasks[t];
            const Mode &mode = model.task(t).modes[a.mode];
            if (step < a.start || step >= a.start + mode.duration)
                continue;
            if (mode.group != kNoGroup) {
                if (group_busy[mode.group] >= 0)
                    return format("tasks %d and %d overlap on group %s "
                                  "at step %d", group_busy[mode.group], t,
                                  model.groupName(mode.group).c_str(),
                                  step);
                group_busy[mode.group] = t;
            }
            for (int r = 0; r < model.numResources(); ++r)
                res_used[r] += mode.usage[r];
        }
        for (int r = 0; r < model.numResources(); ++r)
            if (res_used[r] > model.capacity(r) + eps)
                return format("resource %s over capacity at step %d "
                              "(%.3f > %.3f)",
                              model.resourceName(r).c_str(), step,
                              res_used[r], model.capacity(r));
    }
    return "";
}

std::string
describeModel(const Model &model)
{
    std::string out = format("model: %d tasks, %d resources, "
                             "%d groups, horizon %d\n",
                             model.numTasks(), model.numResources(),
                             model.numGroups(), model.horizon());
    for (int r = 0; r < model.numResources(); ++r)
        out += format("  resource %d (%s): capacity %.3f\n", r,
                      model.resourceName(r).c_str(),
                      model.capacity(r));
    for (int g = 0; g < model.numGroups(); ++g)
        out += format("  group %d: %s\n", g,
                      model.groupName(g).c_str());
    for (int t = 0; t < model.numTasks(); ++t) {
        const Task &task = model.task(t);
        out += format("  task %d (%s):\n", t, task.name.c_str());
        for (size_t m = 0; m < task.modes.size(); ++m) {
            const Mode &mode = task.modes[m];
            std::string usage;
            for (size_t r = 0; r < mode.usage.size(); ++r)
                usage += format("%s%.3f", r ? ", " : "",
                                mode.usage[r]);
            out += format("    mode %zu: dur %d, group %s, "
                          "usage [%s]\n", m, mode.duration,
                          mode.group == kNoGroup
                              ? "-"
                              : model.groupName(mode.group).c_str(),
                          usage.c_str());
        }
        for (int s : model.successors(t))
            out += format("    -> task %d\n", s);
        for (const Model::LagEdge &edge : model.lagSuccessors(t))
            out += format("    ~> task %d (start lag %d)\n",
                          edge.other, edge.lag);
    }
    return out;
}

} // namespace cp
} // namespace hilp
