/**
 * @file
 * Profile: interval-based resource/group occupancy, the compact
 * replacement for the dense step-indexed Timetable.
 *
 * A Profile stores, per cumulative resource, a piecewise-constant
 * usage function as sorted breakpoints (time, level), and per
 * disjunctive group a sorted list of disjoint busy intervals.
 * Memory is O(placed intervals) instead of O(resources x horizon),
 * and the earliest-feasible-start query jumps over entire busy
 * intervals/segments instead of advancing one step past each
 * conflicting step.
 *
 * The storage is one structure-of-arrays slab: flat contiguous
 * start[]/level[] arrays with per-resource offset ranges (groups
 * likewise), searched with branch-light galloping, plus per-mode
 * resource-unit rows precomputed once (keyed on Mode::id) so the hot
 * earliestStart path never converts doubles.
 *
 * Resource levels are held in scaled integer units (see toUnits),
 * so place()/remove() round-trips are *exact*: no floating-point
 * drift can accumulate across the millions of place/remove cycles a
 * branch-and-bound search performs. The same units are used by the
 * dense Timetable, the brute-force reference implementation the
 * differential tests (tests/oracles) hold the Profile against.
 */

#ifndef HILP_CP_PROFILE_HH
#define HILP_CP_PROFILE_HH

#include <cstdint>
#include <vector>

#include "model.hh"

namespace hilp {
namespace cp {

/** Resource amounts in scaled integer units (exact arithmetic). */
using Units = int64_t;

/** Scale factor: one unit is 2^-30 of a resource unit (~9.3e-10). */
inline constexpr int64_t kUnitScale = int64_t{1} << 30;

/**
 * Capacity comparison slack, in units (~7.5e-9 resource units).
 * Mirrors the floating-point epsilon the dense timetable historically
 * used (1e-9) while absorbing the half-unit rounding each toUnits()
 * conversion can contribute.
 */
inline constexpr Units kCapacitySlack = 8;

/** Convert a resource amount to scaled integer units. */
Units toUnits(double value);

/** Convert scaled integer units back to a resource amount. */
double fromUnits(Units units);

/**
 * Interval-based occupancy of the model's resources and groups.
 * Drop-in contract-compatible with the dense Timetable. Every mode
 * passed in must be a mode of that model: its Mode::id selects the
 * precomputed rows.
 */
class Profile
{
  public:
    /** Build an empty profile for the model's resources/groups. */
    explicit Profile(const Model &model);

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

    /**
     * Empty every resource and group, as a fresh Profile of the same
     * model. The slab storage (grown regions included) and the
     * per-mode unit rows stay, so refilling allocates nothing.
     */
    void clear();

    /** Resource usage of resource r at time step. */
    double usage(int r, Time step) const;

    /** Exact resource usage of resource r at step, in units. */
    Units usageUnits(int r, Time step) const;

    /** True when group g is busy at time step. */
    bool groupBusy(int g, Time step) const;

    /** The model's horizon. */
    Time horizon() const { return horizon_; }

    /** Breakpoints currently stored for resource r (diagnostics). */
    size_t breakpoints(int r) const
    {
        return static_cast<size_t>(resLen_[r]);
    }

    /** Busy intervals currently stored for group g (diagnostics). */
    size_t intervals(int g) const
    {
        return static_cast<size_t>(grpLen_[g]);
    }

    /**
     * Heap bytes currently committed to occupancy storage (the slab
     * capacities). Sampled around a search, the growth is the
     * profile's contribution to scratch allocation — near zero in
     * steady state.
     */
    size_t heapBytes() const;

  private:
    /**
     * First candidate start after a group conflict in [start, end):
     * the end of the first busy interval of g intersecting the
     * window, or -1 when the window leaves the group idle.
     */
    Time groupBlock(int g, Time start, Time end) const;

    /**
     * First candidate start after a capacity conflict of resource r
     * in [start, end) given `need` extra units: the end of the first
     * over-committed segment, or -1 when the window has room.
     */
    Time resourceBlock(int r, Units need, Time start, Time end) const;

    /**
     * Add delta to resource r over [start, end). A resource's
     * segments stay canonical: sorted, the first starting at 0, and
     * adjacent levels distinct, so an exact place/remove round-trip
     * restores the identical representation.
     */
    void addUsage(int r, Time start, Time end, Units delta);

    /** Grow resource r's slab region (rebuilds the slab). */
    void growResource(int r);

    /** Grow group g's slab region (rebuilds the slab). */
    void growGroup(int g);

    /**
     * Resolve the mode's precomputed per-resource units and the list
     * of resources it actually consumes. The mode must belong to the
     * profile's model (its id indexes the rows).
     */
    void modeRow(const Mode &mode, const Units **units,
                 const int32_t **nz, int32_t *nnz) const;

    /**
     * Resolve the mode's non-zero resources and the precomputed
     * per-resource level limits (capacity + slack - need) that
     * earliestStart sweeps against.
     */
    void modeSweepRow(const Mode &mode, const int32_t **nz,
                      const Units **limits, int32_t *nnz) const;

    const Model &model_;
    Time horizon_;

    /** Per-resource capacity in units. */
    std::vector<Units> capUnits_;
    /**
     * Per-resource sweep state for earliestStart: segment base
     * pointers, length, current containing-segment cursor, and the
     * precomputed level limit, gathered contiguously so the window
     * scan touches a single small array.
     */
    struct SweepCursor
    {
        const Time *starts;
        const Units *levels;
        int32_t len;
        int32_t cur;
        Units limit;
    };
    /** Scratch: earliestStart's active sweep cursors. */
    mutable std::vector<SweepCursor> sweepScratch_;

    // One slab per array family, with per-resource (per-group)
    // offset/length/capacity ranges. Within a resource's range,
    // segment i holds level segLevel_[i] from segStart_[i] until the
    // next segment's start (or the horizon); a group's busy
    // intervals [ivStart_, ivEnd_) are sorted and disjoint. Regions
    // grow by doubling, which rebuilds the slab — rare after warm-up.
    std::vector<int32_t> resOff_, resLen_, resCap_;
    std::vector<Time> segStart_;
    std::vector<Units> segLevel_;
    std::vector<int32_t> grpOff_, grpLen_, grpCap_;
    std::vector<Time> ivStart_, ivEnd_;
    /** Mode id -> row of numResources() precomputed units. */
    std::vector<Units> modeUnits_;
    /** Mode id -> its non-zero resource indices (ascending). */
    std::vector<int32_t> modeNzOff_, modeNzLen_;
    std::vector<int32_t> nzRes_;
    /** Parallel to nzRes_: the mode's level limit on that resource. */
    std::vector<Units> nzLimit_;
};

} // namespace cp
} // namespace hilp

#endif // HILP_CP_PROFILE_HH
