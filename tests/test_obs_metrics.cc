/**
 * @file
 * Tests for the process-wide metrics registry: counters, gauges,
 * geometric histograms with interpolated percentiles, snapshot
 * merge/subtract, invariants, and the crash-safe --metrics-out dump.
 *
 * The registry is process-global, so every test uses metric names
 * under a test-unique prefix and asserts deltas, never absolutes.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "obs/metrics.h"

namespace mtperf::obs {
namespace {

/**
 * Structural JSON check: balanced braces/brackets, sane commas,
 * terminated strings. Catches the classic generator bugs without a
 * full parser.
 */
void
expectStructurallyValidJson(const std::string &text)
{
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    char prev = 0;
    for (char c : text) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            prev = c;
            continue;
        }
        switch (c) {
          case '"':
            in_string = true;
            break;
          case '{':
          case '[':
            ++depth;
            break;
          case '}':
          case ']':
            ASSERT_GT(depth, 0) << "unbalanced close";
            --depth;
            ASSERT_NE(prev, ',') << "comma before close";
            break;
          case ',':
            ASSERT_NE(prev, '{') << "comma after open";
            ASSERT_NE(prev, '[') << "comma after open";
            ASSERT_NE(prev, ',') << "double comma";
            break;
          default:
            break;
        }
        if (!std::isspace(static_cast<unsigned char>(c)))
            prev = c;
    }
    EXPECT_EQ(depth, 0) << "unbalanced JSON";
    EXPECT_FALSE(in_string) << "unterminated string";
}

TEST(ObsCounter, AddsAndIncrements)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.increment();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(ObsCounter, ConcurrentAddsAreLossless)
{
    Counter c;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < 10000; ++i)
                c.increment();
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(c.value(), 40000u);
}

TEST(ObsGauge, SetAddAndWatermark)
{
    Gauge g;
    g.set(5);
    EXPECT_EQ(g.value(), 5);
    EXPECT_EQ(g.maxValue(), 5) << "set() advances the watermark";
    g.add(-3);
    EXPECT_EQ(g.value(), 2);
    EXPECT_EQ(g.maxValue(), 5);
    g.add(10);
    EXPECT_EQ(g.value(), 12);
    EXPECT_EQ(g.maxValue(), 12) << "add() advances the watermark";
    g.add(-12);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(g.maxValue(), 12) << "watermark must not regress";
    g.set(3);
    EXPECT_EQ(g.maxValue(), 12);
}

TEST(ObsHistogram, CountsAndBucketBounds)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    h.record(0.5);
    h.record(10.0);
    h.record(1e9); // beyond the last bucket: clamped, still counted
    EXPECT_EQ(h.count(), 3u);

    // Bucket bounds grow geometrically and bucketFor() inverts them.
    EXPECT_DOUBLE_EQ(h.boundOf(0), h.config().firstBound);
    for (std::size_t b = 1; b < 8; ++b) {
        EXPECT_NEAR(h.boundOf(b) / h.boundOf(b - 1), h.config().growth,
                    1e-12);
        const double mid = 0.5 * (h.boundOf(b - 1) + h.boundOf(b));
        EXPECT_EQ(h.bucketFor(mid), b);
    }
    EXPECT_EQ(h.bucketFor(-1.0), 0u);
    EXPECT_EQ(h.bucketFor(0.0), 0u);
}

TEST(ObsHistogram, SumTracksObservations)
{
    Histogram h;
    double expected = 0.0;
    for (int i = 1; i <= 100; ++i) {
        h.record(static_cast<double>(i));
        expected += i;
    }
    const HistogramSnapshot snap = h.snapshot();
    EXPECT_NEAR(snap.sum(), expected, 1e-9);
    EXPECT_NEAR(snap.mean(), expected / 100.0, 1e-9);
}

/**
 * The pre-interpolation implementation returned the containing
 * bucket's *upper bound* for every percentile — an overestimate of up
 * to the full 25% bucket growth. Interpolation must place the
 * percentile inside the bucket, proportional to rank.
 */
TEST(ObsHistogram, PercentileInterpolatesWithinBucket)
{
    Histogram h;
    // All mass in the bucket containing 10.0.
    for (int i = 0; i < 1000; ++i)
        h.record(10.0);
    const std::size_t b = h.bucketFor(10.0);
    const double lower = b == 0 ? 0.0 : h.boundOf(b - 1);
    const double upper = h.boundOf(b);

    const double p05 = h.percentile(0.05);
    const double p50 = h.percentile(0.5);
    const double p95 = h.percentile(0.95);

    // Strictly increasing through the bucket, never pinned to the
    // upper bound, and each within the bucket.
    EXPECT_LT(p05, p50);
    EXPECT_LT(p50, p95);
    EXPECT_GE(p05, lower);
    EXPECT_LE(p95, upper);
    EXPECT_LT(p50, upper) << "p50 at the bucket upper bound means the "
                             "interpolation regressed";
    EXPECT_NEAR(p50, lower + 0.5 * (upper - lower), 1e-9);
}

TEST(ObsHistogram, PercentileAccuracyOnUniformData)
{
    Histogram h;
    // Uniform samples across the bucket containing 10.0, so the
    // within-bucket uniformity assumption holds exactly and the
    // interpolated percentile should be nearly exact.
    const std::size_t b = h.bucketFor(10.0);
    const double lower = h.boundOf(b - 1);
    const double upper = h.boundOf(b);
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        h.record(lower + (i + 0.5) / n * (upper - lower));
    for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
        const double exact = lower + p * (upper - lower);
        EXPECT_NEAR(h.percentile(p), exact, 0.01 * exact)
            << "p=" << p;
    }
}

TEST(ObsHistogram, SnapshotMergeAccumulates)
{
    Histogram a;
    Histogram b;
    for (int i = 0; i < 100; ++i)
        a.record(5.0);
    for (int i = 0; i < 300; ++i)
        b.record(50.0);

    HistogramSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.count(), 400u);
    EXPECT_NEAR(merged.sum(), 100 * 5.0 + 300 * 50.0, 1e-9);
    // 100 of 400 observations are ~5, so p50 lands in the 50s bucket.
    const double p50 = merged.percentile(0.5);
    EXPECT_GT(p50, 10.0);
    EXPECT_LT(p50, 60.0);
}

TEST(ObsHistogram, SnapshotSubtractYieldsDelta)
{
    Histogram h;
    for (int i = 0; i < 50; ++i)
        h.record(2.0);
    const HistogramSnapshot baseline = h.snapshot();
    for (int i = 0; i < 25; ++i)
        h.record(100.0);

    HistogramSnapshot delta = h.snapshot();
    delta.subtract(baseline);
    EXPECT_EQ(delta.count(), 25u);
    EXPECT_NEAR(delta.sum(), 25 * 100.0, 1e-9);
    // Only the post-baseline observations remain, so the median sits
    // in the 100s bucket, not the 2s bucket.
    EXPECT_GT(delta.percentile(0.5), 80.0);
}

TEST(ObsHistogram, SnapshotSubtractClampsUnderflow)
{
    // Snapshots of a live histogram are taken bucket-by-bucket, so a
    // racing record() can make the "baseline" run ahead of "current"
    // in one bucket. Subtract must clamp, never wrap to 2^64-ish
    // counts or negative sums.
    Histogram a;
    Histogram b;
    for (int i = 0; i < 10; ++i)
        a.record(3.0);
    for (int i = 0; i < 25; ++i)
        b.record(3.0);

    HistogramSnapshot ahead = a.snapshot();  // 10 observations
    ahead.subtract(b.snapshot());            // baseline has 25
    EXPECT_EQ(ahead.count(), 0u) << "clamped, not wrapped";
    EXPECT_GE(ahead.sum(), 0.0) << "sum clamps at zero";
    for (std::uint64_t bucket : ahead.buckets())
        EXPECT_EQ(bucket, 0u);

    // Mixed case: one bucket underflows, another has a real delta.
    Histogram c;
    for (int i = 0; i < 5; ++i)
        c.record(3.0);   // fewer than baseline's 25 at 3.0
    for (int i = 0; i < 40; ++i)
        c.record(200.0); // baseline has none here
    HistogramSnapshot mixed = c.snapshot();
    mixed.subtract(b.snapshot());
    EXPECT_EQ(mixed.count(), 40u)
        << "underflowing bucket clamps to 0; surplus bucket survives";
    EXPECT_GT(mixed.percentile(0.5), 100.0);
}

TEST(ObsHistogram, EmptySnapshotPercentilesAndMeanAreZero)
{
    const Histogram h;
    const HistogramSnapshot empty = h.snapshot();
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
    for (double p : {0.0, 0.5, 0.95, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(empty.percentile(p), 0.0) << "p=" << p;

    // Subtracting a snapshot from itself yields an empty delta with
    // the same all-zero percentile behavior.
    Histogram g;
    g.record(7.0);
    HistogramSnapshot delta = g.snapshot();
    delta.subtract(g.snapshot());
    EXPECT_EQ(delta.count(), 0u);
    EXPECT_DOUBLE_EQ(delta.percentile(0.5), 0.0);
}

TEST(ObsHistogram, PercentileAtBucketBoundaries)
{
    // Two populated buckets with a gap between them: percentiles must
    // interpolate within each populated bucket and jump across the
    // empty gap without ever landing inside it.
    Histogram h;
    const std::size_t low = h.bucketFor(2.0);
    const std::size_t high = h.bucketFor(50.0);
    ASSERT_GT(high, low + 1) << "need an empty gap between buckets";
    for (int i = 0; i < 50; ++i)
        h.record(2.0);
    for (int i = 0; i < 50; ++i)
        h.record(50.0);

    const double lowLower = low == 0 ? 0.0 : h.boundOf(low - 1);
    const double lowUpper = h.boundOf(low);
    const double highLower = h.boundOf(high - 1);
    const double highUpper = h.boundOf(high);

    // p=0 and p=1 pin to the extreme bucket edges.
    EXPECT_GE(h.percentile(0.0), lowLower);
    EXPECT_LE(h.percentile(0.0), lowUpper);
    EXPECT_NEAR(h.percentile(1.0), highUpper, 1e-9);

    // p just below 0.5 stays in the low bucket; just above crosses
    // the empty gap into the high bucket — nothing lands in between.
    EXPECT_LE(h.percentile(0.49), lowUpper);
    EXPECT_GE(h.percentile(0.51), highLower);

    // The p=0.5 boundary itself resolves inside a populated bucket.
    const double p50 = h.percentile(0.5);
    const bool inLow = p50 >= lowLower && p50 <= lowUpper;
    const bool inHigh = p50 >= highLower && p50 <= highUpper;
    EXPECT_TRUE(inLow || inHigh)
        << "p50=" << p50 << " landed in the empty gap";
}

TEST(ObsRegistry, SnapshotRegistryListsEverythingSorted)
{
    counter("test_obs.snap_counter").add(11);
    gauge("test_obs.snap_gauge").add(4);
    histogram("test_obs.snap_hist").record(9.0);

    const MetricsSnapshot snap = snapshotRegistry();
    const auto findCounter = [&](const std::string &name) {
        for (const auto &[n, v] : snap.counters)
            if (n == name)
                return v;
        return std::uint64_t{0};
    };
    EXPECT_GE(findCounter("test_obs.snap_counter"), 11u);
    bool sawGauge = false;
    for (const auto &[n, g] : snap.gauges)
        if (n == "test_obs.snap_gauge") {
            sawGauge = true;
            EXPECT_GE(g.max, 4);
        }
    EXPECT_TRUE(sawGauge);
    for (std::size_t i = 1; i < snap.counters.size(); ++i)
        EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first)
            << "sorted order";
}

TEST(ObsRegistry, ReturnsStableReferences)
{
    Counter &a = counter("test_obs.stable_counter");
    Counter &b = counter("test_obs.stable_counter");
    EXPECT_EQ(&a, &b);
    Gauge &g1 = gauge("test_obs.stable_gauge");
    Gauge &g2 = gauge("test_obs.stable_gauge");
    EXPECT_EQ(&g1, &g2);
    Histogram &h1 = histogram("test_obs.stable_hist");
    Histogram &h2 = histogram("test_obs.stable_hist");
    EXPECT_EQ(&h1, &h2);
}

TEST(ObsRegistry, HistogramConfigAppliesOnlyOnCreation)
{
    HistogramConfig custom;
    custom.firstBound = 2.0;
    custom.growth = 2.0;
    custom.buckets = 8;
    Histogram &h = histogram("test_obs.custom_hist", custom);
    EXPECT_TRUE(h.config() == custom);
    // A different config on re-resolution is ignored.
    Histogram &again = histogram("test_obs.custom_hist", HistogramConfig{});
    EXPECT_EQ(&again, &h);
    EXPECT_TRUE(again.config() == custom);
}

TEST(ObsInvariants, ValidateReportsViolationsAndReregisterReplaces)
{
    Counter &made = counter("test_obs.inv_made");
    Counter &used = counter("test_obs.inv_used");
    registerInvariant("test_obs.made_vs_used", [&]() -> std::string {
        if (made.value() == used.value())
            return "";
        return "made " + std::to_string(made.value()) + " != used " +
               std::to_string(used.value());
    });

    auto violationsFor = [](const std::string &name) {
        std::size_t hits = 0;
        for (const auto &v : validateInvariants())
            if (v.name == name)
                ++hits;
        return hits;
    };

    EXPECT_EQ(violationsFor("test_obs.made_vs_used"), 0u);
    made.add(3);
    EXPECT_EQ(violationsFor("test_obs.made_vs_used"), 1u);
    used.add(3);
    EXPECT_EQ(violationsFor("test_obs.made_vs_used"), 0u);

    // Re-registering the same name replaces the old check instead of
    // stacking a second copy.
    registerInvariant("test_obs.made_vs_used",
                      []() -> std::string { return "always broken"; });
    EXPECT_EQ(violationsFor("test_obs.made_vs_used"), 1u);
    registerInvariant("test_obs.made_vs_used",
                      []() -> std::string { return ""; });
    EXPECT_EQ(violationsFor("test_obs.made_vs_used"), 0u);
}

TEST(ObsJson, MetricsDumpIsValidAndComplete)
{
    counter("test_obs.json_counter").add(7);
    gauge("test_obs.json_gauge").add(3);
    histogram("test_obs.json_hist").record(12.0);

    const std::string json = metricsToJson();
    expectStructurallyValidJson(json);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"test_obs.json_counter\":7"), std::string::npos);
    EXPECT_NE(json.find("\"test_obs.json_gauge\""), std::string::npos);
    EXPECT_NE(json.find("\"test_obs.json_hist\""), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

TEST(ObsJson, WriteMetricsFileRoundTrips)
{
    const std::string path =
        testing::TempDir() + "/mtperf_obs_metrics.json";
    std::filesystem::remove(path);
    counter("test_obs.file_counter").increment();
    writeMetricsFile(path);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    expectStructurallyValidJson(text);
    EXPECT_NE(text.find("\"test_obs.file_counter\""), std::string::npos);
    std::filesystem::remove(path);
}

TEST(ObsJson, WriteMetricsFileIsCrashSafeUnderFaultInjection)
{
    const std::string path =
        testing::TempDir() + "/mtperf_obs_metrics_fault.json";
    std::filesystem::remove(path);
    fault::configure("obs.flush:1:1");
    EXPECT_THROW(writeMetricsFile(path), fault::InjectedFault);
    // The atomic-write protocol means a failed flush leaves no file
    // (and no temp-file litter a reader could mistake for the dump).
    EXPECT_FALSE(std::filesystem::exists(path));
    fault::clear();

    // The budget of 1 is spent: the retry succeeds.
    writeMetricsFile(path);
    EXPECT_TRUE(std::filesystem::exists(path));
    std::filesystem::remove(path);
}

} // namespace
} // namespace mtperf::obs
