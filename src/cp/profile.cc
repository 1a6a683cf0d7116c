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
    : model_(model),
      horizon_(model.horizon())
{
    hilp_assert(horizon_ > 0);
    const int nr = model.numResources();
    capUnits_.reserve(static_cast<size_t>(nr));
    for (int r = 0; r < nr; ++r)
        capUnits_.push_back(toUnits(model.capacity(r)));
    sweepScratch_.resize(static_cast<size_t>(nr));

    // Slab regions sized for the common case (a full schedule
    // contributes at most two breakpoints per task and one interval
    // per task); growResource/growGroup doubles on overflow.
    const int32_t res_cap =
        std::max<int32_t>(8, 2 * model.numTasks() + 4);
    resOff_.resize(static_cast<size_t>(nr));
    resLen_.assign(static_cast<size_t>(nr), 1);
    resCap_.assign(static_cast<size_t>(nr), res_cap);
    segStart_.assign(static_cast<size_t>(nr) *
                         static_cast<size_t>(res_cap), 0);
    segLevel_.assign(segStart_.size(), 0);
    for (int r = 0; r < nr; ++r)
        resOff_[r] = r * res_cap; // Region r starts as one {0, 0}.

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

    // Precompute each mode's resource-unit row and non-zero resource
    // list once, so the hot queries never call llround again.
    const int nm = model.numModes();
    modeUnits_.assign(static_cast<size_t>(nm) *
                          static_cast<size_t>(nr), 0);
    modeNzOff_.assign(static_cast<size_t>(nm), 0);
    modeNzLen_.assign(static_cast<size_t>(nm), 0);
    for (int t = 0; t < model.numTasks(); ++t) {
        for (const Mode &mode : model.task(t).modes) {
            hilp_assert(mode.id >= 0 && mode.id < nm);
            Units *row = modeUnits_.data() +
                         static_cast<size_t>(mode.id) *
                             static_cast<size_t>(nr);
            modeNzOff_[mode.id] =
                static_cast<int32_t>(nzRes_.size());
            for (int r = 0; r < nr; ++r) {
                row[r] = toUnits(mode.usage[r]);
                if (row[r] > 0) {
                    nzRes_.push_back(r);
                    // The level limit this mode tolerates on r is a
                    // constant of the (mode, resource) pair; bake it
                    // so earliestStart never gathers capacities.
                    nzLimit_.push_back(capUnits_[r] +
                                       kCapacitySlack - row[r]);
                }
            }
            modeNzLen_[mode.id] =
                static_cast<int32_t>(nzRes_.size()) -
                modeNzOff_[mode.id];
        }
    }
}

void
Profile::modeRow(const Mode &mode, const Units **units,
                 const int32_t **nz, int32_t *nnz) const
{
    hilp_assert(mode.id >= 0 &&
                static_cast<size_t>(mode.id) < modeNzOff_.size());
    *units = modeUnits_.data() +
             static_cast<size_t>(mode.id) *
                 static_cast<size_t>(model_.numResources());
    *nz = nzRes_.data() + modeNzOff_[mode.id];
    *nnz = modeNzLen_[mode.id];
}

void
Profile::modeSweepRow(const Mode &mode, const int32_t **nz,
                      const Units **limits, int32_t *nnz) const
{
    hilp_assert(mode.id >= 0 &&
                static_cast<size_t>(mode.id) < modeNzOff_.size());
    *nz = nzRes_.data() + modeNzOff_[mode.id];
    *limits = nzLimit_.data() + modeNzOff_[mode.id];
    *nnz = modeNzLen_[mode.id];
}

size_t
Profile::heapBytes() const
{
    return segStart_.capacity() * sizeof(Time) +
           segLevel_.capacity() * sizeof(Units) +
           ivStart_.capacity() * sizeof(Time) +
           ivEnd_.capacity() * sizeof(Time) +
           modeUnits_.capacity() * sizeof(Units) +
           nzRes_.capacity() * sizeof(int32_t) +
           nzLimit_.capacity() * sizeof(Units);
}

void
Profile::growResource(int r)
{
    // Rebuild the slab with this resource's region doubled. Rare:
    // amortized by the doubling, and the initial capacity already
    // covers a full schedule's worth of breakpoints.
    std::vector<int32_t> new_off(resOff_.size());
    int32_t total = 0;
    for (size_t k = 0; k < resCap_.size(); ++k) {
        new_off[k] = total;
        total += k == static_cast<size_t>(r) ? resCap_[k] * 2
                                             : resCap_[k];
    }
    std::vector<Time> new_starts(static_cast<size_t>(total), 0);
    std::vector<Units> new_levels(static_cast<size_t>(total), 0);
    for (size_t k = 0; k < resCap_.size(); ++k) {
        std::copy_n(segStart_.begin() + resOff_[k], resLen_[k],
                    new_starts.begin() + new_off[k]);
        std::copy_n(segLevel_.begin() + resOff_[k], resLen_[k],
                    new_levels.begin() + new_off[k]);
    }
    resCap_[r] *= 2;
    resOff_ = std::move(new_off);
    segStart_ = std::move(new_starts);
    segLevel_ = std::move(new_levels);
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

Time
Profile::resourceBlock(int r, Units need, Time start, Time end) const
{
    const Units limit = capUnits_[r] + kCapacitySlack - need;
    const Time *starts = segStart_.data() + resOff_[r];
    const Units *levels = segLevel_.data() + resOff_[r];
    const int32_t len = resLen_[r];
    for (int32_t i = gallopLast(starts, len, start);
         i < len && starts[i] < end; ++i) {
        if (levels[i] > limit)
            return i + 1 < len ? starts[i + 1] : horizon_;
    }
    return -1;
}

void
Profile::addUsage(int r, Time start, Time end, Units delta)
{
    if (delta == 0 || start >= end)
        return;
    // At most two segments get inserted below; reserving up front
    // keeps the region pointers stable for the whole operation.
    if (resLen_[r] + 2 > resCap_[r])
        growResource(r);
    Time *starts = segStart_.data() + resOff_[r];
    Units *levels = segLevel_.data() + resOff_[r];
    int32_t len = resLen_[r];

    auto insert_at = [&](int32_t pos, Time s, Units level) {
        std::memmove(starts + pos + 1, starts + pos,
                     static_cast<size_t>(len - pos) * sizeof(Time));
        std::memmove(levels + pos + 1, levels + pos,
                     static_cast<size_t>(len - pos) * sizeof(Units));
        starts[pos] = s;
        levels[pos] = level;
        ++len;
    };
    auto erase_at = [&](int32_t pos) {
        std::memmove(starts + pos, starts + pos + 1,
                     static_cast<size_t>(len - pos - 1) *
                         sizeof(Time));
        std::memmove(levels + pos, levels + pos + 1,
                     static_cast<size_t>(len - pos - 1) *
                         sizeof(Units));
        --len;
    };

    // Ensure breakpoints at start and end (the tail keeps the old
    // level), shift the covered levels, then restore canonical form
    // at the two junctions. Interior junctions cannot collapse: both
    // sides moved by the same delta.
    int32_t i = gallopLast(starts, len, start);
    if (starts[i] != start) {
        insert_at(i + 1, start, levels[i]);
        ++i;
    }
    int32_t j = i;
    while (j + 1 < len && starts[j + 1] < end)
        ++j;
    Time j_end = j + 1 < len ? starts[j + 1] : horizon_;
    if (j_end > end)
        insert_at(j + 1, end, levels[j]);
    for (int32_t k = i; k <= j; ++k)
        levels[k] += delta;

    if (j + 1 < len && levels[j + 1] == levels[j])
        erase_at(j + 1);
    if (i > 0 && levels[i] == levels[i - 1])
        erase_at(i);
    resLen_[r] = len;
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
    const Units *units;
    const int32_t *nz;
    int32_t nnz;
    modeRow(mode, &units, &nz, &nnz);
    for (int32_t k = 0; k < nnz; ++k)
        if (resourceBlock(nz[k], units[nz[k]], start, end) >= 0)
            return false;
    return true;
}

Time
Profile::earliestStart(const Mode &mode, Time est) const
{
    hilp_assert(est >= 0);
    if (mode.duration == 0)
        return est <= horizon_ ? est : -1;

    const int32_t *nz;
    const Units *limits;
    int32_t nnz;
    modeSweepRow(mode, &nz, &limits, &nnz);

    const Time dur = mode.duration;
    Time start = est;
    if (start + dur > horizon_)
        return -1;

    // Monotone-cursor sweep. No window that contains any step of a
    // blocking interval or over-capacity segment can be feasible, so
    // a bump restarts the scan directly after the whole blocker. The
    // candidate start only ever moves forward, so each resource's
    // containing segment (and the group's first still-open interval)
    // is located once at entry and then advanced in-place; a bump
    // never re-searches from the front. The returned start is the
    // least feasible one - independent of blocker iteration order.
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
    // A mode's non-zero resource count never exceeds the resource
    // count the scratch was sized for in the constructor.
    hilp_assert(static_cast<size_t>(nnz) <= sweepScratch_.size());
    int32_t ns = 0;
    for (int32_t k = 0; k < nnz; ++k) {
        const int r = nz[k];
        const Time *starts = segStart_.data() + resOff_[r];
        const Units *levels = segLevel_.data() + resOff_[r];
        const int32_t len = resLen_[r];
        const Units limit = limits[k];
        const int32_t cur = gallopLast(starts, len, start);
        // The candidate start only moves forward, so a resource
        // whose containing segment is already its last one can never
        // block any later window if that segment has room - the
        // common case for queries at the schedule frontier. Keep it
        // out of the sweep set entirely.
        if (cur == len - 1 && levels[cur] <= limit)
            continue;
        sweepScratch_[ns++] = {starts, levels, len, cur, limit};
    }

    while (true) {
        const Time end = start + dur;
        Time bump = -1;
        if (gi < glen) {
            while (gi < glen && ge[gi] <= start)
                ++gi;
            if (gi < glen && gs[gi] < end)
                bump = ge[gi];
        }
        if (bump < 0) {
            for (int32_t k = 0; k < ns; ++k) {
                SweepCursor &c = sweepScratch_[k];
                int32_t i = c.cur;
                while (i + 1 < c.len && c.starts[i + 1] <= start)
                    ++i;
                // Remember only the containing segment: the window
                // scan below may overrun segments a later (smaller)
                // bump still needs to inspect.
                c.cur = i;
                for (; i < c.len && c.starts[i] < end; ++i) {
                    if (c.levels[i] > c.limit) {
                        bump = i + 1 < c.len ? c.starts[i + 1]
                                             : horizon_;
                        break;
                    }
                }
                if (bump >= 0) {
                    // Adaptive ordering: the binding resource (the
                    // shared power cap, typically) tends to bump
                    // again, so front-load it and spare the other
                    // cursors. The returned start is unchanged: the
                    // sweep's fixpoint is blocker-order independent.
                    if (k != 0)
                        std::swap(sweepScratch_[0], sweepScratch_[k]);
                    break;
                }
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
    const Units *units;
    const int32_t *nz;
    int32_t nnz;
    modeRow(mode, &units, &nz, &nnz);
    for (int32_t k = 0; k < nnz; ++k)
        addUsage(nz[k], start, end, units[nz[k]]);
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
    const Units *units;
    const int32_t *nz;
    int32_t nnz;
    modeRow(mode, &units, &nz, &nnz);
    for (int32_t k = 0; k < nnz; ++k)
        addUsage(nz[k], start, end, -units[nz[k]]);
}

void
Profile::clear()
{
    // Region r back to its single {0, 0} segment; regions keep their
    // offsets and capacities, so a cleared profile is canonical and
    // answers every query exactly as a fresh one.
    for (size_t r = 0; r < resLen_.size(); ++r) {
        resLen_[r] = 1;
        segStart_[resOff_[r]] = 0;
        segLevel_[resOff_[r]] = 0;
    }
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
    const Time *starts = segStart_.data() + resOff_[r];
    return segLevel_[resOff_[r] +
                     gallopLast(starts, resLen_[r], step)];
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
