/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * log-scale histograms.
 *
 * Counters and histograms accumulate into thread-local shards so the
 * hot path is a single relaxed atomic add with no cross-thread
 * contention; shards are merged on snapshot. Metric objects are
 * created on first lookup and live for the remainder of the process,
 * so references returned by counter()/gauge()/histogram() never
 * dangle and may be cached (e.g. in a function-local static) on hot
 * paths.
 *
 * The registry is the numeric side of the observability layer (the
 * tracer in trace.hh is the timeline side): solver and sweep code
 * publishes effort totals here, and snapshotJson()/snapshotCsv()
 * fold them into the DSE reports and the --metrics-out dumps.
 */

#ifndef HILP_SUPPORT_METRICS_HH
#define HILP_SUPPORT_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "json.hh"

namespace hilp {
namespace metrics {

/**
 * Histogram bucket count: bucket 0 collects values <= 0, bucket b in
 * [1, 64] collects values whose bit width is b, i.e. the range
 * [2^(b-1), 2^b - 1]. Log-scale, so microsecond latencies and node
 * counts alike need no per-metric configuration.
 */
constexpr int kHistogramBuckets = 65;

/**
 * A monotonically increasing counter. add() lands in a thread-local
 * cell (a relaxed fetch_add on an uncontended cache line); value()
 * merges every thread's cell. The merged value is exact once the
 * writing threads have synchronized with the reader (e.g. been
 * joined, as a sweep's helper threads are before it returns).
 */
class Counter
{
  public:
    explicit Counter(std::string name);
    ~Counter();

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    const std::string &name() const { return name_; }

    /** Add delta to this thread's cell. */
    void add(int64_t delta = 1);

    /** Sum over all threads' cells. */
    int64_t value() const;

    /** Zero every cell. Only safe with no concurrent writers. */
    void reset();

    struct Cell;

  private:
    Cell &localCell();

    std::string name_;
    uint64_t id_;
    mutable std::mutex mutex_;
    std::vector<std::shared_ptr<Cell>> cells_;
};

/** A last-value-wins gauge. Single atomic double, no sharding. */
class Gauge
{
  public:
    explicit Gauge(std::string name) : name_(std::move(name)) {}

    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    const std::string &name() const { return name_; }

    void set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::string name_;
    std::atomic<double> value_{0.0};
};

/** A merged view of a histogram at one point in time. */
struct HistogramSnapshot
{
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;  //!< 0 when count == 0.
    int64_t max = 0;
    std::array<int64_t, kHistogramBuckets> buckets{};

    double mean() const;

    /**
     * Approximate quantile (q in [0, 1]) from the log-scale buckets:
     * linear interpolation across the bucket holding the q-th
     * sample, clamped to the observed [min, max]. q=0 returns min,
     * q=1 returns max exactly; elsewhere the error is bounded by the
     * bucket width (one power of two).
     */
    double quantile(double q) const;
};

/**
 * A log-scale histogram of int64 samples. record() updates a
 * thread-local cell (relaxed adds; min/max are owner-thread stores),
 * snapshot() merges all cells.
 */
class Histogram
{
  public:
    explicit Histogram(std::string name);
    ~Histogram();

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    const std::string &name() const { return name_; }

    /** Record one sample. */
    void record(int64_t value);

    /** Merge every thread's cell into one view. */
    HistogramSnapshot snapshot() const;

    /** Zero every cell. Only safe with no concurrent writers. */
    void reset();

    /** Bucket index a value lands in (see kHistogramBuckets). */
    static int bucketOf(int64_t value);

    struct Cell;

  private:
    Cell &localCell();

    std::string name_;
    uint64_t id_;
    mutable std::mutex mutex_;
    std::vector<std::shared_ptr<Cell>> cells_;
};

/** Find or create the named metric. References stay valid forever. */
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);
Histogram &histogram(const std::string &name);

/**
 * A coherent value snapshot of every registered metric, in sorted
 * name order. This is the one structure every exporter (JSON, CSV,
 * Prometheus text, the daemon's stats op) renders from, so they can
 * never disagree about what the registry held.
 */
struct RegistrySnapshot
{
    std::vector<std::pair<std::string, int64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

RegistrySnapshot snapshotAll();

/**
 * Snapshot of the whole registry as JSON:
 * {"counters": {name: value}, "gauges": {name: value},
 *  "histograms": {name: {count, sum, min, max, mean, p50, p95, p99}}}
 */
Json snapshotJson();

/**
 * Snapshot of the whole registry as CSV rows "metric,kind,value".
 * Histograms expand to one row per derived statistic
 * (name.count, name.sum, name.mean, ...).
 */
std::string snapshotCsv();

/**
 * Zero every registered metric. For tests; only safe when no other
 * thread is concurrently recording.
 */
void resetAll();

} // namespace metrics
} // namespace hilp

#endif // HILP_SUPPORT_METRICS_HH
