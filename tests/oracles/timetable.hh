/**
 * @file
 * Timetable: the dense step-indexed resource/group occupancy profile.
 *
 * The timetable records, per time step, how much of each cumulative
 * resource is committed and which disjunctive groups are busy. It
 * supports exact add/remove (for chronological backtracking) and the
 * earliest-feasible-start query that drives schedule generation.
 *
 * The production schedulers (list scheduler, branch-and-bound) now
 * run on the interval-based Profile (profile.hh), which implements
 * the same contract in O(placed intervals) memory with busy-interval
 * jumping. The dense timetable survives, in the tests' oracle
 * library, as the obviously-correct reference implementation:
 * differential tests drive both through random operation sequences
 * and require exact agreement. Resource
 * amounts are held in the same scaled integer units as the Profile
 * (see profile.hh), so place/remove round-trips are exact here too.
 */

#ifndef HILP_TESTS_ORACLES_TIMETABLE_HH
#define HILP_TESTS_ORACLES_TIMETABLE_HH

#include <vector>

#include "cp/model.hh"
#include "cp/profile.hh"

namespace hilp {
namespace cp {

/**
 * Per-time-step occupancy of the model's resources and groups.
 */
class Timetable
{
  public:
    /** Build an empty timetable sized to the model's horizon. */
    explicit Timetable(const Model &model);

    /**
     * Earliest start >= est at which the given mode fits: the whole
     * window [start, start + duration) must leave the mode's group
     * idle and keep all resource profiles within capacity. Returns
     * -1 when no feasible start exists before the horizon.
     */
    Time earliestStart(const Mode &mode, Time est) const;

    /** True when the mode can be placed with its window at start. */
    bool fits(const Mode &mode, Time start) const;

    /** Commit a mode over [start, start + duration). */
    void place(const Mode &mode, Time start);

    /** Exactly undo a previous place() with the same arguments. */
    void remove(const Mode &mode, Time start);

    /** Resource usage of resource r at time step. */
    double usage(int r, Time step) const
    { return fromUnits(usage_[r][step]); }

    /** Exact resource usage of resource r at step, in units. */
    Units usageUnits(int r, Time step) const
    { return usage_[r][step]; }

    /** True when group g is busy at time step. */
    bool groupBusy(int g, Time step) const { return busy_[g][step] != 0; }

    /** The model's horizon. */
    Time horizon() const { return horizon_; }

  private:
    /**
     * First conflicting step in [start, start + duration), or -1 when
     * the window is conflict-free.
     */
    Time firstConflict(const Mode &mode, Time start) const;

    const Model &model_;
    Time horizon_;
    /** usage_[resource][step], in scaled integer units. */
    std::vector<std::vector<Units>> usage_;
    /** busy_[group][step], 0 or 1 */
    std::vector<std::vector<uint8_t>> busy_;
    /** Per-resource capacity in units. */
    std::vector<Units> capUnits_;
};

} // namespace cp
} // namespace hilp

#endif // HILP_TESTS_ORACLES_TIMETABLE_HH
