/** @file Unit tests for the metrics registry. */

#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

#include "support/metrics.hh"

namespace hilp {
namespace {

TEST(MetricsTest, CounterStartsAtZeroAndAccumulates)
{
    metrics::Counter counter("test.counter.basic");
    EXPECT_EQ(counter.value(), 0);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42);
    counter.add(-2);
    EXPECT_EQ(counter.value(), 40);
    counter.reset();
    EXPECT_EQ(counter.value(), 0);
}

TEST(MetricsTest, RegistryReturnsSameObjectForSameName)
{
    metrics::Counter &a = metrics::counter("test.registry.same");
    metrics::Counter &b = metrics::counter("test.registry.same");
    EXPECT_EQ(&a, &b);
    a.reset();
    a.add(7);
    EXPECT_EQ(b.value(), 7);
    a.reset();
}

TEST(MetricsTest, GaugeKeepsLastValue)
{
    metrics::Gauge gauge("test.gauge.basic");
    EXPECT_EQ(gauge.value(), 0.0);
    gauge.set(2.5);
    gauge.set(-1.25);
    EXPECT_EQ(gauge.value(), -1.25);
}

TEST(MetricsTest, HistogramBucketsAreLogScale)
{
    EXPECT_EQ(metrics::Histogram::bucketOf(-5), 0);
    EXPECT_EQ(metrics::Histogram::bucketOf(0), 0);
    EXPECT_EQ(metrics::Histogram::bucketOf(1), 1);
    EXPECT_EQ(metrics::Histogram::bucketOf(2), 2);
    EXPECT_EQ(metrics::Histogram::bucketOf(3), 2);
    EXPECT_EQ(metrics::Histogram::bucketOf(4), 3);
    EXPECT_EQ(metrics::Histogram::bucketOf(1023), 10);
    EXPECT_EQ(metrics::Histogram::bucketOf(1024), 11);
    EXPECT_EQ(metrics::Histogram::bucketOf(
        std::numeric_limits<int64_t>::max()), 63);
}

TEST(MetricsTest, HistogramSnapshotStatistics)
{
    metrics::Histogram histogram("test.histogram.stats");
    for (int64_t value : {1, 2, 3, 100})
        histogram.record(value);
    metrics::HistogramSnapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.count, 4);
    EXPECT_EQ(snap.sum, 106);
    EXPECT_EQ(snap.min, 1);
    EXPECT_EQ(snap.max, 100);
    EXPECT_DOUBLE_EQ(snap.mean(), 106.0 / 4.0);
    // Quantiles are exact at the extremes, bucket-bounded between.
    EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(snap.quantile(1.0), 100.0);
    double p50 = snap.quantile(0.5);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p50, 3.0);

    histogram.reset();
    snap = histogram.snapshot();
    EXPECT_EQ(snap.count, 0);
    EXPECT_EQ(snap.mean(), 0.0);
}

TEST(MetricsTest, QuantileOfEmptySnapshotIsZero)
{
    metrics::HistogramSnapshot snap;
    EXPECT_DOUBLE_EQ(snap.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(snap.quantile(1.0), 0.0);
}

TEST(MetricsTest, QuantileOfAllZeroSamples)
{
    metrics::Histogram histogram("test.histogram.zeros");
    for (int i = 0; i < 5; ++i)
        histogram.record(0);
    metrics::HistogramSnapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.count, 5);
    // Every sample lands in the <= 0 bucket; every quantile is 0.
    EXPECT_DOUBLE_EQ(snap.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(snap.quantile(0.99), 0.0);
    EXPECT_DOUBLE_EQ(snap.quantile(1.0), 0.0);
}

TEST(MetricsTest, QuantileOfSingleSampleIsThatSample)
{
    metrics::Histogram histogram("test.histogram.single");
    histogram.record(7);
    metrics::HistogramSnapshot snap = histogram.snapshot();
    for (double q : {0.0, 0.25, 0.5, 0.95, 1.0})
        EXPECT_DOUBLE_EQ(snap.quantile(q), 7.0) << "q=" << q;
}

TEST(MetricsTest, QuantileExtremesAreExactAndClamped)
{
    metrics::Histogram histogram("test.histogram.extremes");
    // 2 and 3 share the [2,3] bucket: interpolation alone would give
    // q=0 a value of 2.5, but the extremes must return the recorded
    // min/max exactly (out-of-range q clamps to them too).
    histogram.record(2);
    histogram.record(3);
    metrics::HistogramSnapshot snap = histogram.snapshot();
    EXPECT_DOUBLE_EQ(snap.quantile(0.0), 2.0);
    EXPECT_DOUBLE_EQ(snap.quantile(-1.0), 2.0);
    EXPECT_DOUBLE_EQ(snap.quantile(1.0), 3.0);
    EXPECT_DOUBLE_EQ(snap.quantile(2.0), 3.0);
}

TEST(MetricsTest, QuantileInterpolatesWithinBucket)
{
    metrics::Histogram histogram("test.histogram.interp");
    // 4 and 7 both land in the [4,7] bucket. The p50 rank is the
    // first of the two samples: linear interpolation puts it halfway
    // into the bucket's span, between the recorded values.
    histogram.record(4);
    histogram.record(7);
    metrics::HistogramSnapshot snap = histogram.snapshot();
    double p50 = snap.quantile(0.5);
    EXPECT_GE(p50, 4.0);
    EXPECT_LE(p50, 7.0);
    // Monotone in q, and never outside [min, max].
    double p25 = snap.quantile(0.25);
    double p95 = snap.quantile(0.95);
    EXPECT_LE(p25, p50);
    EXPECT_LE(p50, p95);
    EXPECT_GE(p25, 4.0);
    EXPECT_LE(p95, 7.0);
}

TEST(MetricsTest, QuantileAcrossBucketsRespectsOrdering)
{
    metrics::Histogram histogram("test.histogram.spread");
    for (int64_t value : {1, 10, 100, 1000, 10000})
        histogram.record(value);
    metrics::HistogramSnapshot snap = histogram.snapshot();
    EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(snap.quantile(1.0), 10000.0);
    // p99 with five samples targets the last one: its bucket is
    // [8192, 16383], so the estimate lands at 10000 after clamping
    // or just below it inside the bucket.
    EXPECT_GE(snap.quantile(0.99), 8192.0);
    EXPECT_LE(snap.quantile(0.99), 10000.0);
    double last = 0.0;
    for (double q : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        double value = snap.quantile(q);
        EXPECT_GE(value, last) << "q=" << q;
        last = value;
    }
}

TEST(MetricsTest, SnapshotAllCarriesEveryKind)
{
    metrics::counter("test.snapall.counter").reset();
    metrics::counter("test.snapall.counter").add(9);
    metrics::gauge("test.snapall.gauge").set(0.5);
    metrics::histogram("test.snapall.histogram").reset();
    metrics::histogram("test.snapall.histogram").record(3);

    metrics::RegistrySnapshot all = metrics::snapshotAll();
    bool counter_seen = false, gauge_seen = false, histo_seen = false;
    for (const auto &entry : all.counters)
        if (entry.first == "test.snapall.counter") {
            counter_seen = true;
            EXPECT_EQ(entry.second, 9);
        }
    for (const auto &entry : all.gauges)
        if (entry.first == "test.snapall.gauge") {
            gauge_seen = true;
            EXPECT_DOUBLE_EQ(entry.second, 0.5);
        }
    for (const auto &entry : all.histograms)
        if (entry.first == "test.snapall.histogram") {
            histo_seen = true;
            EXPECT_EQ(entry.second.count, 1);
        }
    EXPECT_TRUE(counter_seen);
    EXPECT_TRUE(gauge_seen);
    EXPECT_TRUE(histo_seen);
    metrics::counter("test.snapall.counter").reset();
    metrics::histogram("test.snapall.histogram").reset();
}

TEST(MetricsTest, ConcurrentCounterIncrementsMergeExactly)
{
    metrics::Counter &counter =
        metrics::counter("test.counter.concurrent");
    counter.reset();
    constexpr int kTasks = 64;
    constexpr int kAddsPerTask = 1000;
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w)
        threads.emplace_back([&counter] {
            for (int t = 0; t < kTasks / 4; ++t)
                for (int i = 0; i < kAddsPerTask; ++i)
                    counter.add(1);
        });
    // join() establishes the happens-before edge that makes the
    // merged value exact, matching how sweeps read metrics.
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(counter.value(),
              static_cast<int64_t>(kTasks) * kAddsPerTask);
    counter.reset();
}

TEST(MetricsTest, ConcurrentHistogramRecordsMergeExactly)
{
    metrics::Histogram &histogram =
        metrics::histogram("test.histogram.concurrent");
    histogram.reset();
    constexpr int kTasks = 32;
    constexpr int kSamplesPerTask = 500;
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w)
        threads.emplace_back([&histogram] {
            for (int t = 0; t < kTasks / 4; ++t)
                for (int i = 0; i < kSamplesPerTask; ++i)
                    histogram.record(i + 1);
        });
    for (std::thread &thread : threads)
        thread.join();
    metrics::HistogramSnapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.count,
              static_cast<int64_t>(kTasks) * kSamplesPerTask);
    EXPECT_EQ(snap.sum, static_cast<int64_t>(kTasks) *
              kSamplesPerTask * (kSamplesPerTask + 1) / 2);
    EXPECT_EQ(snap.min, 1);
    EXPECT_EQ(snap.max, kSamplesPerTask);
    histogram.reset();
}

TEST(MetricsTest, SnapshotJsonCarriesRegisteredMetrics)
{
    metrics::counter("test.snapshot.counter").reset();
    metrics::counter("test.snapshot.counter").add(5);
    metrics::gauge("test.snapshot.gauge").set(1.5);
    metrics::histogram("test.snapshot.histogram").reset();
    metrics::histogram("test.snapshot.histogram").record(10);

    Json snap = metrics::snapshotJson();
    const Json *counters = snap.find("counters");
    ASSERT_NE(counters, nullptr);
    const Json *value = counters->find("test.snapshot.counter");
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value->intValue(), 5);

    const Json *gauges = snap.find("gauges");
    ASSERT_NE(gauges, nullptr);
    const Json *gauge = gauges->find("test.snapshot.gauge");
    ASSERT_NE(gauge, nullptr);
    EXPECT_DOUBLE_EQ(gauge->numberValue(), 1.5);

    const Json *histograms = snap.find("histograms");
    ASSERT_NE(histograms, nullptr);
    const Json *histogram = histograms->find("test.snapshot.histogram");
    ASSERT_NE(histogram, nullptr);
    const Json *count = histogram->find("count");
    ASSERT_NE(count, nullptr);
    EXPECT_EQ(count->intValue(), 1);

    metrics::counter("test.snapshot.counter").reset();
    metrics::histogram("test.snapshot.histogram").reset();
}

TEST(MetricsTest, SnapshotCsvHasHeaderAndRows)
{
    metrics::counter("test.csv.counter").reset();
    metrics::counter("test.csv.counter").add(3);
    std::string csv = metrics::snapshotCsv();
    EXPECT_NE(csv.find("metric,kind,value"), std::string::npos);
    EXPECT_NE(csv.find("test.csv.counter,counter,3"),
              std::string::npos);
    metrics::counter("test.csv.counter").reset();
}

TEST(MetricsTest, CounterVisibleFromShortLivedThreads)
{
    // A thread's cell must survive (and stay counted) after the
    // thread exits - workers come and go over a sweep's lifetime.
    metrics::Counter &counter =
        metrics::counter("test.counter.thread_exit");
    counter.reset();
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&counter] { counter.add(10); });
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(counter.value(), 80);
    counter.reset();
}

} // anonymous namespace
} // namespace hilp
