/**
 * @file
 * Profile: interval-based resource/group occupancy, the compact
 * replacement for the dense step-indexed Timetable.
 *
 * A Profile stores every cumulative resource on one shared time axis:
 * sorted segments, each holding one row of per-resource levels that
 * stays constant until the next segment starts. Each disjunctive
 * group keeps a sorted list of disjoint busy intervals. Memory is
 * O(segments x resources + placed intervals) instead of
 * O(resources x horizon), and the earliest-feasible-start query
 * jumps over entire busy intervals/segments instead of advancing one
 * step past each conflicting step.
 *
 * The axis is two flat arrays, segment starts and level rows, that
 * double in place when full; groups keep one slab with per-group
 * regions. Both are searched with branch-light galloping. Each
 * mode's non-zero resources, its units on each and its level limits
 * are precomputed once (keyed on Mode::id), so the hot earliestStart
 * path never converts doubles and tests only the resources a mode
 * uses.
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
     * model. The storage (grown capacity included) and the per-mode
     * rows stay, so refilling allocates nothing.
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

    /** Segments currently on the shared time axis (diagnostics). */
    size_t segments() const { return static_cast<size_t>(segLen_); }

    /** Busy intervals currently stored for group g (diagnostics). */
    size_t intervals(int g) const
    {
        return static_cast<size_t>(grpLen_[g]);
    }

    /**
     * Heap bytes currently committed to occupancy storage (the axis
     * and slab capacities). Sampled around a search, the growth is
     * the profile's contribution to scratch allocation — near zero
     * in steady state.
     */
    size_t heapBytes() const;

  private:
    /**
     * First candidate start after a group conflict in [start, end):
     * the end of the first busy interval of g intersecting the
     * window, or -1 when the window leaves the group idle.
     */
    Time groupBlock(int g, Time start, Time end) const;

    /** A mode's non-zero resources, their units and level limits. */
    struct ModeRow
    {
        const int32_t *nz;
        const Units *units;
        /** Per nz[k]: capacity + slack - units[k]. */
        const Units *limits;
        int32_t nnz;
    };

    /**
     * Resolve the mode's precomputed row. The mode must belong to the
     * profile's model (its id indexes the rows).
     */
    ModeRow modeRow(const Mode &mode) const;

    /**
     * First segment k >= from starting before end whose row exceeds
     * one of the mode's limits, or -1 when every such row has room.
     */
    int32_t firstOverRow(const ModeRow &row, int32_t from,
                         Time end) const;

    /**
     * Add sign * the mode's units over [start, end). The axis stays
     * canonical: sorted, the first segment starting at 0, and
     * adjacent rows distinct, so equal placement sets give the
     * identical axis and a place/remove round-trip restores it.
     */
    void addRow(const ModeRow &row, Time start, Time end, Units sign);

    /** Grow group g's slab region (rebuilds the slab). */
    void growGroup(int g);

    Time horizon_;
    /** Levels per axis row: the model's resource count. */
    int32_t nr_;

    // The shared axis. Segment i covers [segStart_[i],
    // segStart_[i + 1]) (the last one runs to the horizon) and holds
    // resource r at level segLevel_[i * nr_ + r]. Only the first
    // segLen_ segments are live; the vectors are sized to the
    // capacity and double in place.
    int32_t segLen_ = 1;
    std::vector<Time> segStart_;
    std::vector<Units> segLevel_;
    // One slab of per-group regions: group g's busy intervals
    // [ivStart_, ivEnd_) are sorted and disjoint. Regions grow by
    // doubling, which rebuilds the slab — rare after warm-up.
    std::vector<int32_t> grpOff_, grpLen_, grpCap_;
    std::vector<Time> ivStart_, ivEnd_;
    /** Mode id -> its non-zero resource indices (ascending). */
    std::vector<int32_t> modeNzOff_, modeNzLen_;
    std::vector<int32_t> nzRes_;
    /** Parallel to nzRes_: the mode's units and level limit there. */
    std::vector<Units> nzUnits_, nzLimit_;
};

} // namespace cp
} // namespace hilp

#endif // HILP_CP_PROFILE_HH
