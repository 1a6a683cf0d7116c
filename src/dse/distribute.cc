/** @file Distributed-sweep coordinator. See distribute.hh. */

#include "distribute.hh"

#include <algorithm>
#include <utility>

#include "checkpoint.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace hilp {
namespace dse {

Coordinator::Coordinator(std::vector<arch::SocConfig> configs,
                         ModelKind kind, CoordinatorOptions options)
    : configs_(std::move(configs)), kind_(kind),
      options_(std::move(options))
{
    units_ = similarityChains(configs_);
    unitState_.assign(units_.size(), UnitState::Pending);
    unitReissued_.assign(units_.size(), 0);
    for (size_t u = 0; u < units_.size(); ++u)
        pending_.push_back(u);
    merged_.resize(configs_.size());
    have_.assign(configs_.size(), 0);
    for (size_t i = 0; i < configs_.size(); ++i)
        byName_[configs_[i].name()].push_back(i);
}

Coordinator::Clock::time_point
Coordinator::expiryFromNow() const
{
    return Clock::now() +
           std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(options_.leaseTimeoutS));
}

size_t
Coordinator::reapLocked()
{
    const Clock::time_point now = Clock::now();
    size_t reaped = 0;
    for (auto it = leases_.begin(); it != leases_.end();) {
        if (it->second.expiry > now) {
            ++it;
            continue;
        }
        const size_t unit = it->second.unit;
        warn("dse: lease %llu (worker %s, unit %zu) expired; "
             "re-queueing the unit",
             static_cast<unsigned long long>(it->first),
             it->second.worker.c_str(), unit);
        it = leases_.erase(it);
        ++reaped;
        metrics::counter("dse.lease.expired").add(1);
        if (unitState_[unit] == UnitState::Leased) {
            unitState_[unit] = UnitState::Pending;
            unitReissued_[unit] = 1;
            pending_.push_back(unit);
        }
    }
    if (reaped > 0)
        metrics::gauge("dse.lease.active")
            .set(static_cast<double>(leases_.size()));
    return reaped;
}

size_t
Coordinator::reapExpired()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return reapLocked();
}

LeaseOutcome
Coordinator::lease(const std::string &worker, LeaseGrant *grant)
{
    std::lock_guard<std::mutex> lock(mutex_);
    reapLocked();
    if (pending_.empty())
        return LeaseOutcome::Wait;

    const size_t unit = pending_.front();
    pending_.pop_front();
    unitState_[unit] = UnitState::Leased;

    const uint64_t id = nextLeaseId_++;
    leases_[id] = Lease{unit, worker, expiryFromNow()};

    grant->leaseId = id;
    grant->unit = unit;
    grant->expiresS = options_.leaseTimeoutS;
    grant->configNames.clear();
    grant->configNames.reserve(units_[unit].size());
    for (size_t idx : units_[unit])
        grant->configNames.push_back(configs_[idx].name());

    metrics::counter("dse.lease.issued").add(1);
    metrics::gauge("dse.lease.active")
        .set(static_cast<double>(leases_.size()));
    if (unitReissued_[unit]) {
        unitReissued_[unit] = 0;
        ++reissued_;
        metrics::counter("dse.lease.reissued").add(1);
    }
    return LeaseOutcome::Granted;
}

bool
Coordinator::heartbeat(const std::string &worker, uint64_t lease_id)
{
    (void)worker;
    std::lock_guard<std::mutex> lock(mutex_);
    metrics::counter("dse.worker.heartbeats").add(1);
    auto it = leases_.find(lease_id);
    if (it == leases_.end())
        return false;
    it->second.expiry = expiryFromNow();
    return true;
}

bool
Coordinator::submitRecord(const std::string &worker, uint64_t lease_id,
                          const std::string &record_line,
                          std::string *error, bool *duplicate)
{
    (void)worker;
    if (duplicate)
        *duplicate = false;
    uint64_t key = 0;
    DsePoint point;
    Schedule schedule;
    bool has_schedule = false;
    std::string name;
    if (!parsePointRecord(record_line, &key, &point, &schedule,
                          &has_schedule, &name)) {
        metrics::counter("dse.worker.rejected").add(1);
        if (error)
            *error = "malformed record line";
        return false;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    metrics::counter("dse.worker.submits").add(1);
    auto lease = leases_.find(lease_id);
    if (lease != leases_.end())
        lease->second.expiry = expiryFromNow();

    // Idempotent merge: the first record for a key wins; duplicates
    // (a zombie worker redoing a re-issued unit, a resubmit after a
    // lost ack) are dropped. Deterministic evaluation means the
    // colliding records would have agreed anyway.
    if (!seen_.insert(key).second) {
        ++duplicates_;
        metrics::counter("dse.worker.duplicates").add(1);
        if (duplicate)
            *duplicate = true;
        return true;
    }

    auto slot = byName_.find(name);
    if (slot == byName_.end() || slot->second.empty()) {
        // A record for a config this sweep never asked for: count it
        // and move on; it cannot be merged.
        metrics::counter("dse.worker.rejected").add(1);
        warn("dse: submitted record for unknown config '%s'",
             name.c_str());
        return true;
    }
    const size_t index = slot->second.front();
    slot->second.pop_front();

    // Structural fields derive from the local config (the record
    // only carries the label), exactly like a checkpoint resume.
    point.setConfig(configs_[index]);
    merged_[index] = std::move(point);
    have_[index] = 1;
    ++pointsMerged_;

    if (options_.ledger && !merged_[index].errored)
        options_.ledger->record(key, kind_, merged_[index],
                                has_schedule ? &schedule : nullptr);
    return true;
}

bool
Coordinator::completeLease(const std::string &worker, uint64_t lease_id)
{
    (void)worker;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = leases_.find(lease_id);
    if (it == leases_.end())
        return false;
    const size_t unit = it->second.unit;
    leases_.erase(it);
    if (unitState_[unit] != UnitState::Done) {
        unitState_[unit] = UnitState::Done;
        ++unitsDone_;
        metrics::counter("dse.lease.completed").add(1);
    }
    metrics::gauge("dse.lease.active")
        .set(static_cast<double>(leases_.size()));
    return true;
}

bool
Coordinator::finished() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return unitsDone_ == units_.size();
}

CoordinatorProgress
Coordinator::progress() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CoordinatorProgress progress;
    progress.units = units_.size();
    progress.unitsDone = unitsDone_;
    progress.leasesActive = leases_.size();
    progress.pointsMerged = pointsMerged_;
    progress.duplicates = duplicates_;
    progress.reissued = reissued_;
    progress.finished = unitsDone_ == units_.size();
    return progress;
}

std::vector<DsePoint>
Coordinator::takePoints()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<DsePoint> points = merged_;
    for (size_t i = 0; i < configs_.size(); ++i) {
        if (have_[i])
            continue;
        // Never merged (only possible before finished()): keep the
        // default not-ok point but restore its structural identity.
        points[i].setConfig(configs_[i]);
        points[i].note = "never merged (distributed sweep incomplete)";
    }
    return points;
}

} // namespace dse
} // namespace hilp
