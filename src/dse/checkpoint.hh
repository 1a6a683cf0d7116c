/**
 * @file
 * Crash-safe checkpointing for DSE sweeps.
 *
 * A sweep over hundreds of configurations can take hours; an
 * interrupted run (crash, OOM kill, preemption) must not discard the
 * points it already solved. The SweepCheckpoint appends one JSONL
 * record per completed design point - keyed by the lowered instance's
 * ProblemSpec::fingerprint(), the configuration name, and the model
 * kind - and, when reopened with resume, serves those points back so
 * exploreSpace skips the work. A record is flushed as soon as its
 * point completes, so a SIGKILL loses at most the in-flight points;
 * the loader skips and counts malformed records - a torn final line
 * from an interrupted write, but also damaged interior lines, which
 * matter once a coordinator merges many workers' streams into one
 * ledger - and reports the total via dropped().
 *
 * Resumed points restore the certified result and telemetry totals;
 * HILP records additionally persist their schedule, so a resumed
 * point can still seed the sweep's warm-start chains (see
 * lookupSchedule). A record without a schedule resumes fine - the
 * chain just stays cold, costing effort, never correctness.
 */

#ifndef HILP_DSE_CHECKPOINT_HH
#define HILP_DSE_CHECKPOINT_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>

#include "explore.hh"
#include "hilp/schedule.hh"
#include "support/json.hh"

namespace hilp {
namespace dse {

/**
 * The stable identity of one evaluated point across runs: the
 * lowered instance's fingerprint, the configuration name, and the
 * evaluating model. The model kind matters because MA/Gables/HILP
 * share lowered specs but produce different results.
 */
uint64_t checkpointKey(uint64_t fingerprint,
                       const std::string &config_name, ModelKind kind);

/**
 * Encode one completed point as a record object: the JSONL
 * checkpoint format, doubling as the hilpd wire format for streamed
 * sweep results (so a stream capture is a valid --resume file). A
 * non-null schedule is embedded so warm-start chains survive a
 * resume.
 */
Json pointRecordJson(uint64_t key, ModelKind kind,
                     const DsePoint &point,
                     const Schedule *schedule = nullptr);

/**
 * Decode one record line into (key, point[, schedule]). Returns
 * false on any structural problem - most importantly the torn final
 * line a SIGKILL can leave in a checkpoint - and on any member of the
 * wrong JSON kind or out of range: `nodes` and `backtracks` must be
 * integers >= 0, `solves` an integer in [0, INT_MAX], `gap` in
 * [0, 1], `makespan_s`, `speedup`, `avg_wlp` and `solve_s` >= 0, and
 * `status` a cp::toString name. An absent member keeps its default.
 * A malformed embedded schedule degrades to *has_schedule == false
 * rather than dropping the record. Structural fields derived from
 * the config being evaluated (config, area, mix) and the resumed
 * flag are the caller's to fill. A non-null config_name receives the
 * record's "config" label - the handle a coordinator merges
 * worker-submitted records by.
 */
bool parsePointRecord(const std::string &line, uint64_t *key,
                      DsePoint *point, Schedule *schedule,
                      bool *has_schedule,
                      std::string *config_name = nullptr);

/** The same, for a record line the caller has already parsed. */
bool parsePointRecord(const Json &entry, uint64_t *key,
                      DsePoint *point, Schedule *schedule,
                      bool *has_schedule,
                      std::string *config_name = nullptr);

/**
 * A JSONL checkpoint of completed design points. Thread-safe: sweep
 * workers record points concurrently. One instance may span several
 * exploreSpace calls (e.g. the MA, Gables, and HILP sweeps of one
 * figure) - keys keep the models apart.
 */
class SweepCheckpoint
{
  public:
    SweepCheckpoint() = default;
    ~SweepCheckpoint();

    SweepCheckpoint(const SweepCheckpoint &) = delete;
    SweepCheckpoint &operator=(const SweepCheckpoint &) = delete;

    /**
     * Open the checkpoint for appending. With resume, existing
     * records are loaded first (a missing file is an empty resume,
     * not an error); without it the file is truncated. Returns false
     * and fills *error when the file cannot be opened or created.
     */
    bool open(const std::string &path, bool resume,
              std::string *error = nullptr);

    /** Points loaded from a previous run at open() time. */
    size_t loaded() const;

    /**
     * Malformed records skipped at open() time: the torn final line
     * of an interrupted run, or damaged interior lines in a merged
     * ledger. Callers surface this in their resume summary.
     */
    size_t dropped() const;

    /**
     * fsync the file after every record() flush. Off by default (the
     * historical durability: flush-per-point). A coordinator's merged
     * ledger turns it on so an acknowledged submit survives a host
     * crash, not just a process crash.
     */
    void setFsync(bool on);

    /**
     * Serve a previously completed point. On a hit *out is the
     * restored point with resumed set; structural fields (config,
     * area, mix) are the caller's to fill, since they derive from the
     * config being evaluated anyway.
     */
    bool lookup(uint64_t key, DsePoint *out) const;

    /**
     * Append a completed point and flush it to disk. Safe to call
     * concurrently; each record lands as one complete line. A
     * non-null schedule is persisted with the record so a resumed
     * sweep can rehydrate its warm-start chains (exploreSpace passes
     * the HILP schedule; the analytic models pass null).
     */
    void record(uint64_t key, ModelKind kind, const DsePoint &point,
                const Schedule *schedule = nullptr);

    /**
     * The schedule persisted with a resumed point, if its record
     * carried one. Returns false (leaving *out untouched) otherwise.
     */
    bool lookupSchedule(uint64_t key, Schedule *out) const;

    /** Close the underlying file early (the destructor also does). */
    void close();

  private:
    mutable std::mutex mutex_;
    std::unordered_map<uint64_t, DsePoint> entries_;
    /** Schedules restored from records that carried one. */
    std::unordered_map<uint64_t, Schedule> schedules_;
    std::FILE *file_ = nullptr;
    size_t dropped_ = 0;
    bool fsync_ = false;
};

} // namespace dse
} // namespace hilp

#endif // HILP_DSE_CHECKPOINT_HH
