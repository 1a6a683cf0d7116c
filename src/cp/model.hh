/**
 * @file
 * The constraint model HILP lowers its JSSP formulation into.
 *
 * A Model is a multi-mode resource-constrained scheduling problem:
 *
 *  - A set of tasks (the paper's application phases). Each task has
 *    one or more execution modes; a mode fixes the disjunctive group
 *    it runs on (a physical device such as the GPU or one DSA), its
 *    duration in integer time steps, and its consumption of each
 *    cumulative resource (power, memory bandwidth, CPU cores) while
 *    active. Modes encode the paper's E/T/B/P/U matrices and its
 *    idealized DVFS: one mode per (compute unit, operating point).
 *  - Precedence edges between tasks (Eq. 2 and the generalized
 *    dependency graph of Eq. 9).
 *  - Cumulative resources with fixed capacities (Eqs. 6-8).
 *  - Disjunctive groups: at most one active task per group at any
 *    time (Eq. 3, non-interference).
 *  - A time horizon bounding all completion times (Section III-D).
 *
 * The objective is always makespan minimization (Eq. 1).
 */

#ifndef HILP_CP_MODEL_HH
#define HILP_CP_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/logging.hh"

namespace hilp {
namespace cp {

/** Discrete model time, in time steps. */
using Time = int32_t;

/** Sentinel: mode does not occupy any disjunctive group. */
inline constexpr int kNoGroup = -1;

/**
 * One way of executing a task: a device (group), a duration, and the
 * cumulative resources consumed while the task is active.
 */
struct Mode
{
    /** Disjunctive group occupied while active, or kNoGroup. */
    int group = kNoGroup;
    /** Execution time in time steps (>= 0; 0 means negligible). */
    Time duration = 0;
    /** Consumption of each cumulative resource while active. */
    std::vector<double> usage;
    /**
     * Model-wide dense mode index, assigned by Model::addTask in
     * task/mode order. The Profile keys its precomputed per-mode
     * resource-unit rows on it, so it queries only modes of its own
     * model; -1 on modes never added to a model.
     */
    int id = -1;
};

/**
 * A schedulable unit of work (an application phase in HILP terms).
 */
struct Task
{
    std::string name;
    std::vector<Mode> modes;
};

/**
 * A multi-mode resource-constrained scheduling problem instance.
 */
class Model
{
  public:
    /**
     * Add a cumulative resource with the given capacity; returns the
     * resource index used in Mode::usage.
     */
    int addResource(double capacity, std::string name = "");

    /** Add a disjunctive group; returns the group index. */
    int addGroup(std::string name = "");

    /**
     * Add a task; every mode must reference valid groups and have a
     * usage vector sized to the number of resources added so far.
     * Returns the task index.
     */
    int addTask(Task task);

    /**
     * Require task 'before' to complete no later than the start of
     * task 'after' (both are existing task indices).
     */
    void addPrecedence(int before, int after);

    /**
     * Initiation interval (Section VII "other extensions"): require
     * task 'after' to start at least `lag` steps after the *start*
     * of task 'before' (a start-to-start constraint;
     * S_after >= S_before + lag with lag >= 0). Unlike
     * addPrecedence, 'before' need not have finished.
     */
    void addStartLag(int before, int after, Time lag);

    /** Set the scheduling horizon in time steps (exclusive bound). */
    void setHorizon(Time horizon);

    /** The scheduling horizon. */
    Time horizon() const { return horizon_; }

    int numTasks() const { return static_cast<int>(tasks_.size()); }
    int numResources() const { return static_cast<int>(caps_.size()); }
    int numGroups() const { return static_cast<int>(groupNames_.size()); }

    /** Modes added across all tasks (the range of Mode::id). */
    int numModes() const { return numModes_; }

    const Task &task(int t) const { return tasks_[t]; }
    double capacity(int r) const { return caps_[r]; }
    const std::string &resourceName(int r) const { return resNames_[r]; }
    const std::string &groupName(int g) const { return groupNames_[g]; }

    /** Direct finish-to-start predecessors of task t. */
    const std::vector<int> &predecessors(int t) const { return preds_[t]; }

    /** Direct finish-to-start successors of task t. */
    const std::vector<int> &successors(int t) const { return succs_[t]; }

    /** A start-to-start lag edge. */
    struct LagEdge
    {
        int other;  //!< The task at the far end of the edge.
        Time lag;   //!< Minimum start-to-start distance.
    };

    /** Incoming start-lag edges of task t ({predecessor, lag}). */
    const std::vector<LagEdge> &lagPredecessors(int t) const
    { return lagPreds_[t]; }

    /** Outgoing start-lag edges of task t ({successor, lag}). */
    const std::vector<LagEdge> &lagSuccessors(int t) const
    { return lagSuccs_[t]; }

    /** True when any start-lag edges exist. */
    bool hasStartLags() const { return numLagEdges_ > 0; }

    /**
     * Shortest duration across the modes of task t. Precomputed at
     * addTask time: the search's bound computation calls this tens
     * of millions of times per solve.
     */
    Time minDuration(int t) const
    {
        hilp_assert(minDur_[t] >= 0);
        return minDur_[t];
    }

    /** Longest duration across the modes of task t (precomputed). */
    Time maxDuration(int t) const
    {
        hilp_assert(maxDur_[t] >= 0);
        return maxDur_[t];
    }

    /**
     * A topological order of the tasks. Panics if the precedence
     * graph has a cycle; use validate() first for a user-level error.
     */
    std::vector<int> topologicalOrder() const;

    /**
     * Check structural sanity: at least one mode per task, usage
     * vectors sized to the resources, valid group references, an
     * acyclic precedence graph, and a positive horizon. Returns an
     * empty string when valid, otherwise a description of the first
     * problem found.
     */
    std::string validate() const;

  private:
    std::vector<Task> tasks_;
    /** Cached min/max mode duration per task (-1 for no modes). */
    std::vector<Time> minDur_;
    std::vector<Time> maxDur_;
    std::vector<double> caps_;
    std::vector<std::string> resNames_;
    std::vector<std::string> groupNames_;
    std::vector<std::vector<int>> preds_;
    std::vector<std::vector<int>> succs_;
    std::vector<std::vector<LagEdge>> lagPreds_;
    std::vector<std::vector<LagEdge>> lagSuccs_;
    int numLagEdges_ = 0;
    int numModes_ = 0;
    Time horizon_ = 0;
};

/**
 * A (mode, start) decision for one task.
 */
struct Assignment
{
    int mode = -1;
    Time start = -1;

    bool scheduled() const { return mode >= 0; }
};

/**
 * A complete schedule: one assignment per task.
 */
struct ScheduleVec
{
    std::vector<Assignment> tasks;

    /** Completion time of task t under the model m. */
    Time end(const Model &m, int t) const;

    /** Makespan (maximum completion time; 0 when empty). */
    Time makespan(const Model &m) const;
};

/**
 * Verify that a schedule satisfies every constraint of the model
 * (precedence, capacities, disjunctive groups, horizon). Returns an
 * empty string when feasible, otherwise the first violation found.
 * Used by tests and by the solver's own self-check.
 */
std::string checkSchedule(const Model &model, const ScheduleVec &schedule);

/**
 * Human-readable dump of a model: resources, groups, tasks with
 * their modes, and the dependency structure. For debugging and
 * logging; the format is stable enough for golden tests but not an
 * interchange format.
 */
std::string describeModel(const Model &model);

} // namespace cp
} // namespace hilp

#endif // HILP_CP_MODEL_HH
