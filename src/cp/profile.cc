#include "profile.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "support/logging.hh"

namespace hilp {
namespace cp {

namespace {

/**
 * Last index i in [0, len) with arr[i] <= key. Requires
 * arr[0] <= key (segment arrays always start at time 0). Galloping:
 * double the stride from the front, then binary-search the bracket —
 * branch-light and touching only the flat key array.
 */
int32_t
gallopLast(const Time *arr, int32_t len, Time key)
{
    // The serial-SGS search queries the schedule frontier far more
    // often than the interior, so a key at or past the last
    // breakpoint - the common case - resolves in one comparison.
    if (arr[len - 1] <= key)
        return len - 1;
    int32_t lo = 0;
    int32_t span = 1;
    while (lo + span < len && arr[lo + span] <= key) {
        lo += span;
        span <<= 1;
    }
    int32_t hi = std::min(len, lo + span);
    while (lo + 1 < hi) {
        int32_t mid = (lo + hi) >> 1;
        if (arr[mid] <= key)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

/** First index i in [0, len) with arr[i] > key (len when none). */
int32_t
gallopUpper(const Time *arr, int32_t len, Time key)
{
    if (len == 0 || arr[0] > key)
        return 0;
    return gallopLast(arr, len, key) + 1;
}

} // anonymous namespace

Units
toUnits(double value)
{
    return static_cast<Units>(
        std::llround(value * static_cast<double>(kUnitScale)));
}

double
fromUnits(Units units)
{
    return static_cast<double>(units) /
           static_cast<double>(kUnitScale);
}

Profile::Profile(const Model &model)
    : horizon_(model.horizon()),
      nr_(model.numResources())
{
    hilp_assert(horizon_ > 0);

    // Axis and group regions sized for the common case (a full
    // schedule contributes at most two breakpoints per task and one
    // interval per task); addRow/growGroup double on overflow. The
    // axis starts as one all-zero segment at time 0.
    const size_t seg_cap = static_cast<size_t>(
        std::max<int32_t>(8, 2 * model.numTasks() + 4));
    segStart_.assign(seg_cap, 0);
    segLevel_.assign(seg_cap * static_cast<size_t>(nr_), 0);

    const int ng = model.numGroups();
    const int32_t grp_cap =
        std::max<int32_t>(8, model.numTasks() + 2);
    grpOff_.resize(static_cast<size_t>(ng));
    grpLen_.assign(static_cast<size_t>(ng), 0);
    grpCap_.assign(static_cast<size_t>(ng), grp_cap);
    ivStart_.assign(static_cast<size_t>(ng) *
                        static_cast<size_t>(grp_cap), 0);
    ivEnd_.assign(ivStart_.size(), 0);
    for (int g = 0; g < ng; ++g)
        grpOff_[g] = g * grp_cap;

    // Precompute each mode's non-zero resources, their units and the
    // level limit it tolerates on each (a constant of the pair), so
    // the hot queries never call llround or gather capacities.
    std::vector<Units> cap_units(static_cast<size_t>(nr_));
    for (int r = 0; r < nr_; ++r)
        cap_units[r] = toUnits(model.capacity(r));
    const int nm = model.numModes();
    modeNzOff_.assign(static_cast<size_t>(nm), 0);
    modeNzLen_.assign(static_cast<size_t>(nm), 0);
    for (int t = 0; t < model.numTasks(); ++t) {
        for (const Mode &mode : model.task(t).modes) {
            hilp_assert(mode.id >= 0 && mode.id < nm);
            modeNzOff_[mode.id] =
                static_cast<int32_t>(nzRes_.size());
            for (int r = 0; r < nr_; ++r) {
                const Units units = toUnits(mode.usage[r]);
                if (units > 0) {
                    nzRes_.push_back(r);
                    nzUnits_.push_back(units);
                    nzLimit_.push_back(cap_units[r] +
                                       kCapacitySlack - units);
                }
            }
            modeNzLen_[mode.id] =
                static_cast<int32_t>(nzRes_.size()) -
                modeNzOff_[mode.id];
        }
    }
}

Profile::ModeRow
Profile::modeRow(const Mode &mode) const
{
    hilp_assert(mode.id >= 0 &&
                static_cast<size_t>(mode.id) < modeNzOff_.size());
    const int32_t off = modeNzOff_[mode.id];
    return {nzRes_.data() + off, nzUnits_.data() + off,
            nzLimit_.data() + off, modeNzLen_[mode.id]};
}

size_t
Profile::heapBytes() const
{
    return segStart_.capacity() * sizeof(Time) +
           segLevel_.capacity() * sizeof(Units) +
           ivStart_.capacity() * sizeof(Time) +
           ivEnd_.capacity() * sizeof(Time) +
           nzRes_.capacity() * sizeof(int32_t) +
           nzUnits_.capacity() * sizeof(Units) +
           nzLimit_.capacity() * sizeof(Units);
}

void
Profile::growGroup(int g)
{
    std::vector<int32_t> new_off(grpOff_.size());
    int32_t total = 0;
    for (size_t k = 0; k < grpCap_.size(); ++k) {
        new_off[k] = total;
        total += k == static_cast<size_t>(g) ? grpCap_[k] * 2
                                             : grpCap_[k];
    }
    std::vector<Time> new_starts(static_cast<size_t>(total), 0);
    std::vector<Time> new_ends(static_cast<size_t>(total), 0);
    for (size_t k = 0; k < grpCap_.size(); ++k) {
        std::copy_n(ivStart_.begin() + grpOff_[k], grpLen_[k],
                    new_starts.begin() + new_off[k]);
        std::copy_n(ivEnd_.begin() + grpOff_[k], grpLen_[k],
                    new_ends.begin() + new_off[k]);
    }
    grpCap_[g] *= 2;
    grpOff_ = std::move(new_off);
    ivStart_ = std::move(new_starts);
    ivEnd_ = std::move(new_ends);
}

Time
Profile::groupBlock(int g, Time start, Time end) const
{
    const Time *ivs = ivStart_.data() + grpOff_[g];
    const Time *ive = ivEnd_.data() + grpOff_[g];
    const int32_t len = grpLen_[g];
    // First busy interval still open at (or after) start.
    int32_t i = gallopUpper(ive, len, start);
    if (i < len && ivs[i] < end)
        return ive[i];
    return -1;
}

int32_t
Profile::firstOverRow(const ModeRow &row, int32_t from, Time end) const
{
    for (int32_t i = from; i < segLen_ && segStart_[i] < end; ++i) {
        const Units *level =
            segLevel_.data() + static_cast<size_t>(i) * nr_;
        for (int32_t k = 0; k < row.nnz; ++k)
            if (level[row.nz[k]] > row.limits[k])
                return i;
    }
    return -1;
}

void
Profile::addRow(const ModeRow &row, Time start, Time end, Units sign)
{
    if (row.nnz == 0)
        return; // No usage: the axis stays as it is.
    // At most two segments get inserted below; growing up front
    // keeps the pointers stable for the whole operation.
    if (static_cast<size_t>(segLen_) + 2 > segStart_.size()) {
        segStart_.resize(2 * segStart_.size(), 0);
        segLevel_.resize(segStart_.size() * static_cast<size_t>(nr_),
                         0);
    }
    const size_t nr = static_cast<size_t>(nr_);
    Time *starts = segStart_.data();
    Units *levels = segLevel_.data();
    int32_t len = segLen_;
    auto row_at = [&](int32_t i) {
        return levels + static_cast<size_t>(i) * nr;
    };

    // Open segment pos at time s with segment pos - 1's levels.
    auto split = [&](int32_t pos, Time s) {
        const size_t tail = static_cast<size_t>(len - pos);
        std::memmove(starts + pos + 1, starts + pos,
                     tail * sizeof(Time));
        std::memmove(row_at(pos + 1), row_at(pos),
                     tail * nr * sizeof(Units));
        std::memcpy(row_at(pos), row_at(pos - 1), nr * sizeof(Units));
        starts[pos] = s;
        ++len;
    };
    // Fold segment pos into segment pos - 1 when their rows are equal.
    auto merge = [&](int32_t pos) {
        const Units *a = row_at(pos - 1);
        const Units *b = row_at(pos);
        for (size_t r = 0; r < nr; ++r)
            if (a[r] != b[r])
                return;
        const size_t tail = static_cast<size_t>(len - pos - 1);
        std::memmove(starts + pos, starts + pos + 1,
                     tail * sizeof(Time));
        std::memmove(row_at(pos), row_at(pos + 1),
                     tail * nr * sizeof(Units));
        --len;
    };

    // Ensure breakpoints at start and end (the tail keeps the old
    // levels), add the row over the covered segments, then restore
    // canonical form at the two junctions. Interior junctions cannot
    // collapse: both sides moved by the same row.
    int32_t i = gallopLast(starts, len, start);
    if (starts[i] != start) {
        split(i + 1, start);
        ++i;
    }
    int32_t j = i;
    while (j + 1 < len && starts[j + 1] < end)
        ++j;
    if ((j + 1 < len ? starts[j + 1] : horizon_) > end)
        split(j + 1, end);
    for (int32_t k = i; k <= j; ++k) {
        Units *level = row_at(k);
        for (int32_t q = 0; q < row.nnz; ++q)
            level[row.nz[q]] += sign * row.units[q];
    }

    if (j + 1 < len)
        merge(j + 1);
    if (i > 0)
        merge(i);
    segLen_ = len;
}

bool
Profile::fits(const Mode &mode, Time start) const
{
    hilp_assert(start >= 0);
    if (start + mode.duration > horizon_)
        return false;
    if (mode.duration == 0)
        return true;
    Time end = start + mode.duration;
    if (mode.group != kNoGroup &&
        groupBlock(mode.group, start, end) >= 0)
        return false;
    const ModeRow row = modeRow(mode);
    return row.nnz == 0 ||
           firstOverRow(row, gallopLast(segStart_.data(), segLen_,
                                        start),
                        end) < 0;
}

Time
Profile::earliestStart(const Mode &mode, Time est) const
{
    hilp_assert(est >= 0);
    if (mode.duration == 0)
        return est <= horizon_ ? est : -1;

    const Time dur = mode.duration;
    Time start = est;
    if (start + dur > horizon_)
        return -1;
    const ModeRow row = modeRow(mode);

    // Monotone-cursor sweep. No window that contains any step of a
    // blocking interval or over-capacity segment can be feasible, so
    // a bump restarts the scan directly after the whole blocker. The
    // candidate start only ever moves forward, so the containing
    // segment (and the group's first still-open interval) is located
    // once at entry and then advanced in place; a bump never
    // re-searches from the front. The returned start is the least
    // feasible one - independent of blocker iteration order.
    const Time *gs = nullptr;
    const Time *ge = nullptr;
    int32_t glen = 0;
    int32_t gi = 0;
    if (mode.group != kNoGroup) {
        gs = ivStart_.data() + grpOff_[mode.group];
        ge = ivEnd_.data() + grpOff_[mode.group];
        glen = grpLen_[mode.group];
        gi = gallopUpper(ge, glen, start);
    }
    int32_t seg = gallopLast(segStart_.data(), segLen_, start);

    while (true) {
        const Time end = start + dur;
        Time bump = -1;
        if (gi < glen) {
            while (gi < glen && ge[gi] <= start)
                ++gi;
            if (gi < glen && gs[gi] < end)
                bump = ge[gi];
        }
        if (bump < 0 && row.nnz > 0) {
            while (seg + 1 < segLen_ && segStart_[seg + 1] <= start)
                ++seg;
            const int32_t over = firstOverRow(row, seg, end);
            if (over >= 0) {
                // The last segment runs to the horizon, so no later
                // window clears it.
                if (over + 1 == segLen_)
                    return -1;
                // The next candidate starts exactly at segment
                // over + 1, so that is the cursor's new segment.
                seg = over + 1;
                bump = segStart_[seg];
            }
        }
        if (bump < 0)
            return start;
        hilp_assert(bump > start);
        start = bump;
        if (start + dur > horizon_)
            return -1;
    }
}

void
Profile::place(const Mode &mode, Time start)
{
    hilp_assert(start >= 0 && start + mode.duration <= horizon_);
    if (mode.duration == 0)
        return;
    Time end = start + mode.duration;
    if (mode.group != kNoGroup) {
        const int g = mode.group;
        if (grpLen_[g] + 1 > grpCap_[g])
            growGroup(g);
        Time *ivs = ivStart_.data() + grpOff_[g];
        Time *ive = ivEnd_.data() + grpOff_[g];
        int32_t len = grpLen_[g];
        // First interval starting at or after `start`.
        int32_t pos = gallopUpper(ivs, len, start - 1);
        hilp_assert(pos == len || ivs[pos] >= end);
        hilp_assert(pos == 0 || ive[pos - 1] <= start);
        std::memmove(ivs + pos + 1, ivs + pos,
                     static_cast<size_t>(len - pos) * sizeof(Time));
        std::memmove(ive + pos + 1, ive + pos,
                     static_cast<size_t>(len - pos) * sizeof(Time));
        ivs[pos] = start;
        ive[pos] = end;
        grpLen_[g] = len + 1;
    }
    addRow(modeRow(mode), start, end, 1);
}

void
Profile::remove(const Mode &mode, Time start)
{
    hilp_assert(start >= 0 && start + mode.duration <= horizon_);
    if (mode.duration == 0)
        return;
    Time end = start + mode.duration;
    if (mode.group != kNoGroup) {
        const int g = mode.group;
        Time *ivs = ivStart_.data() + grpOff_[g];
        Time *ive = ivEnd_.data() + grpOff_[g];
        int32_t len = grpLen_[g];
        int32_t pos = gallopUpper(ivs, len, start - 1);
        hilp_assert(pos < len && ivs[pos] == start &&
                    ive[pos] == end);
        std::memmove(ivs + pos, ivs + pos + 1,
                     static_cast<size_t>(len - pos - 1) *
                         sizeof(Time));
        std::memmove(ive + pos, ive + pos + 1,
                     static_cast<size_t>(len - pos - 1) *
                         sizeof(Time));
        grpLen_[g] = len - 1;
    }
    addRow(modeRow(mode), start, end, -1);
}

void
Profile::clear()
{
    // Back to the single all-zero segment; the capacities stay, so a
    // cleared profile is canonical and answers every query exactly as
    // a fresh one.
    segLen_ = 1;
    std::fill_n(segLevel_.begin(), nr_, 0);
    std::fill(grpLen_.begin(), grpLen_.end(), 0);
}

double
Profile::usage(int r, Time step) const
{
    return fromUnits(usageUnits(r, step));
}

Units
Profile::usageUnits(int r, Time step) const
{
    hilp_assert(step >= 0 && step < horizon_);
    const size_t seg = static_cast<size_t>(
        gallopLast(segStart_.data(), segLen_, step));
    return segLevel_[seg * static_cast<size_t>(nr_) +
                     static_cast<size_t>(r)];
}

bool
Profile::groupBusy(int g, Time step) const
{
    hilp_assert(step >= 0 && step < horizon_);
    const Time *ivs = ivStart_.data() + grpOff_[g];
    const Time *ive = ivEnd_.data() + grpOff_[g];
    const int32_t len = grpLen_[g];
    int32_t i = gallopUpper(ive, len, step);
    return i < len && ivs[i] <= step;
}

} // namespace cp
} // namespace hilp
