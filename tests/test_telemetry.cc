/**
 * @file
 * Unit tests for src/telemetry: histogram bucket math and
 * percentiles, the epoch sampler's cadence, the JSONL trace schema,
 * and the off-by-default guarantee (telemetry must not perturb a
 * run's results).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "sim/system.hh"
#include "telemetry/histogram.hh"
#include "telemetry/metric_registry.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_sink.hh"

namespace banshee {
namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

TEST(Histogram, BucketBounds)
{
    // Bucket 0 is exactly the value 0; bucket i >= 1 is [2^(i-1), 2^i).
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(1023), 10u);
    EXPECT_EQ(Histogram::bucketOf(1024), 11u);

    for (std::uint32_t b = 0; b < Histogram::kBuckets - 1; ++b) {
        EXPECT_EQ(Histogram::bucketOf(Histogram::bucketLow(b)), b);
        EXPECT_EQ(Histogram::bucketOf(Histogram::bucketHigh(b)), b);
        EXPECT_LE(Histogram::bucketLow(b), Histogram::bucketHigh(b));
    }
    // The last bucket saturates: anything above 2^46 lands in it.
    EXPECT_EQ(Histogram::bucketOf(~0ull), Histogram::kBuckets - 1);
    EXPECT_EQ(Histogram::bucketHigh(Histogram::kBuckets - 1), ~0ull);
}

TEST(Histogram, CountSumMaxMean)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0.99), 0u);

    h.record(0);
    h.record(10);
    h.record(20);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 30u);
    EXPECT_EQ(h.max(), 20u);
    EXPECT_DOUBLE_EQ(h.mean(), 10.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
}

TEST(Histogram, PercentilesAreConservativeAndClamped)
{
    Histogram h;
    // 950 fast samples (value 100) and 50 slow ones (value 9000): the
    // tail must surface at p99 and never exceed the observed max.
    for (int i = 0; i < 950; ++i)
        h.record(100);
    for (int i = 0; i < 50; ++i)
        h.record(9000);
    // p50 lands in 100's bucket [64, 128): upper bound 127.
    EXPECT_EQ(h.percentile(0.50), 127u);
    // p99 lands in the tail bucket [8192, 16384) but is clamped by
    // the true max.
    EXPECT_EQ(h.percentile(0.99), 9000u);
    EXPECT_EQ(h.percentile(1.0), 9000u);

    // Uniform distribution: every percentile equals the single value.
    Histogram u;
    for (int i = 0; i < 100; ++i)
        u.record(5);
    EXPECT_EQ(u.percentile(0.50), 5u);
    EXPECT_EQ(u.percentile(0.99), 5u);
}

TEST(Histogram, MergeResetAndTrimmedBuckets)
{
    Histogram a;
    Histogram b;
    a.record(1);
    b.record(100);
    b.record(0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.sum(), 101u);
    EXPECT_EQ(a.max(), 100u);

    // Trimmed bucket vector stops after the last nonzero bucket.
    const auto counts = a.bucketCounts();
    EXPECT_EQ(counts.size(), Histogram::bucketOf(100) + 1);
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 1u);

    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.max(), 0u);
    EXPECT_TRUE(a.bucketCounts().empty());

    const HistogramSummary s = b.summary("qlat");
    EXPECT_EQ(s.name, "qlat");
    EXPECT_EQ(s.count, 2u);
    EXPECT_EQ(s.max, 100u);
}

TEST(MetricRegistry, EpochSamplerCadence)
{
    EventQueue eq;
    MetricRegistry reg;
    reg.addGauge("now", [&eq] { return static_cast<double>(eq.now()); });

    std::vector<Cycle> sampleCycles;
    reg.start(eq, 100, [&sampleCycles](const MetricRegistry::Sample &s) {
        sampleCycles.push_back(s.cycle);
    });
    eq.run(1000); // the sampler self-reschedules; bound the clock

    ASSERT_GE(sampleCycles.size(), 5u);
    for (std::size_t i = 0; i < sampleCycles.size(); ++i) {
        EXPECT_EQ(sampleCycles[i], 100 * (i + 1));
        EXPECT_DOUBLE_EQ(reg.series()[i].values[0],
                         static_cast<double>(sampleCycles[i]));
        EXPECT_EQ(reg.series()[i].epoch, i);
    }

    // stop() disarms the pending clock event.
    const std::size_t taken = sampleCycles.size();
    reg.stop();
    eq.run(2000);
    EXPECT_EQ(sampleCycles.size(), taken);
}

TEST(MetricRegistry, CountersAndStatSets)
{
    EventQueue eq;
    MetricRegistry reg;
    StatSet set("dev");
    set.counter("reads") += 7;
    set.counter("writes") += 2;
    reg.addStatSet(set, "dev.");

    const auto &s = reg.sample(eq.now());
    ASSERT_EQ(reg.metricNames().size(), 2u);
    EXPECT_EQ(reg.metricNames()[0], "dev.reads");
    EXPECT_DOUBLE_EQ(s.values[0], 7.0);
    EXPECT_DOUBLE_EQ(s.values[1], 2.0);
}

TEST(TraceSink, JsonlSchemaRoundTrip)
{
    const std::string path = tempPath("trace_roundtrip.jsonl");
    {
        TraceSink sink(path);
        sink.event("runA", 42, "resize_start",
                   {{"from", 8u}, {"to", 6u}, {"strategy", "ch"},
                    {"frac", 0.75}});
        sink.event("run\"B\\", 43, "plain", {});
    }

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0],
              "{\"run\": \"runA\", \"cycle\": 42, "
              "\"event\": \"resize_start\", \"from\": 8, \"to\": 6, "
              "\"strategy\": \"ch\", \"frac\": 0.75}");
    // Quotes and backslashes in labels must be escaped.
    EXPECT_EQ(lines[1],
              "{\"run\": \"run\\\"B\\\\\", \"cycle\": 43, "
              "\"event\": \"plain\"}");
}

TEST(Telemetry, EpochEventsCarryMetricsAndHistograms)
{
    const std::string path = tempPath("trace_epochs.jsonl");
    {
        EventQueue eq;
        TelemetryConfig config;
        config.enabled = true;
        config.path = path;
        config.epochCycles = 50;
        config.runLabel = "unit";
        Telemetry telem(eq, config);

        Histogram &lat = telem.histogram("lat");
        telem.registry().addGauge("g", [] { return 1.5; });
        lat.record(3);
        telem.startEpochs();
        eq.run(120);
        telem.finishEpochs();
    }

    const auto lines = readLines(path);
    // Baseline sample + two epochs + the closing sample.
    ASSERT_EQ(lines.size(), 4u);
    for (const auto &line : lines) {
        EXPECT_NE(line.find("\"run\": \"unit\""), std::string::npos);
        EXPECT_NE(line.find("\"event\": \"epoch\""), std::string::npos);
        EXPECT_NE(line.find("\"g\": 1.500000"), std::string::npos);
        EXPECT_NE(line.find("\"lat\": {\"count\": 1, \"sum\": 3, "
                            "\"max\": 3, \"buckets\": [0, 0, 1]}"),
                  std::string::npos);
    }
    EXPECT_NE(lines[0].find("\"epoch\": 0"), std::string::npos);
    EXPECT_NE(lines[1].find("\"cycle\": 50"), std::string::npos);
    EXPECT_NE(lines[2].find("\"cycle\": 100"), std::string::npos);
}

TEST(Telemetry, DisabledByDefaultLeavesResultsIdentical)
{
    // The telemetry acceptance bar: enabling it must not change what
    // the simulator computes, and leaving it off must add nothing.
    // The default pagerank workload misses the SRAM hierarchy enough
    // to exercise the DRAM channels (a too-small footprint records
    // nothing and the histogram assertions below would be vacuous).
    SystemConfig off = SystemConfig::testDefault();
    EXPECT_FALSE(off.telemetry.enabled);

    SystemConfig on = off;
    on.withTelemetry(tempPath("trace_identity.jsonl"), usToCycles(5.0));
    EXPECT_TRUE(on.telemetry.enabled);

    System offSys(off);
    const RunResult a = offSys.run();
    System onSys(on);
    const RunResult b = onSys.run();

    // Simulated outcomes are deterministic and telemetry is
    // read-only accounting: every integer statistic matches exactly.
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_GT(a.dramCacheAccesses, 0u);
    EXPECT_EQ(a.dramCacheAccesses, b.dramCacheAccesses);
    EXPECT_EQ(a.dramCacheMisses, b.dramCacheMisses);
    EXPECT_EQ(a.pagesMigrated, b.pagesMigrated);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    // Energy integrates lazily at observation points, so the epoch
    // gauge adds integration steps: equal up to rounding, not bitwise.
    EXPECT_NEAR(a.totalEnergyPJ(), b.totalEnergyPJ(),
                1e-6 * a.totalEnergyPJ());

    EXPECT_TRUE(a.histograms.empty());
    EXPECT_FALSE(b.histograms.empty());
    bool sawQueueLat = false;
    for (const auto &h : b.histograms) {
        if (h.name == "inpkg.ch0.queueLat") {
            sawQueueLat = true;
            EXPECT_GT(h.count, 0u);
            EXPECT_GE(h.p95, h.p50);
            EXPECT_GE(h.max, h.p99);
        }
    }
    EXPECT_TRUE(sawQueueLat);
}

} // namespace
} // namespace banshee
