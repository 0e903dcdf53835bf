/**
 * @file
 * Unit tests for src/telemetry: histogram bucket math and
 * percentiles, the epoch sampler's cadence, trace field rendering,
 * the epoch records written into the run's trace file, and the
 * off-by-default guarantee (telemetry must not perturb a run's
 * results).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "sim/system.hh"
#include "telemetry/histogram.hh"
#include "telemetry/span_trace.hh"
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

TEST(Histogram, ResetAndTrimmedBuckets)
{
    Histogram a;
    Histogram b;
    a.record(1);
    a.record(100);
    a.record(0);
    b.record(100);
    b.record(0);
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

TEST(TraceField, RendersAndEscapesJson)
{
    EXPECT_EQ(TraceField("from", 8u).json(), "\"from\": 8");
    EXPECT_EQ(TraceField("strategy", "ch").json(), "\"strategy\": \"ch\"");
    EXPECT_EQ(TraceField("frac", 0.75).json(), "\"frac\": 0.75");
    // Quotes, backslashes and control characters must be escaped.
    EXPECT_EQ(TraceField("run", std::string("a\"B\\\n")).json(),
              "\"run\": \"a\\\"B\\\\\\u000a\"");
}

/** Lines of @p lines that hold a @p ph event named @p name. */
std::vector<std::string>
eventsNamed(const std::vector<std::string> &lines, const char *name,
            const char *ph)
{
    const std::string head = std::string("{\"name\": \"") + name +
                             "\", \"ph\": \"" + ph + "\"";
    std::vector<std::string> out;
    for (const auto &line : lines) {
        if (line.find(head) != std::string::npos)
            out.push_back(line);
    }
    return out;
}

TEST(Telemetry, EpochEventsCarryMetricsAndHistograms)
{
    const std::string path = tempPath("trace_epochs.trace.json");
    {
        EventQueue eq;
        TelemetryConfig config;
        config.enabled = true;
        config.epochCycles = 50;
        Telemetry telem(eq, config);
        SpanTraceConfig spans;
        spans.enabled = true;
        spans.path = path;
        PageJournal journal(spans, kPageBits, 1);

        Histogram &lat = telem.histogram("lat");
        telem.addGauge("g", [] { return 1.5; });
        lat.record(3);
        telem.startEpochs(&journal);
        eq.run(120);
        telem.finishEpochs();
        // The clock is stopped: running on takes no further sample.
        eq.run(1000);
        journal.finish(eq.now());
    }

    const auto lines = readLines(path);
    // Baseline sample + two epochs + the closing sample, each a
    // "metrics" counter plus an "epoch" instant on the run track.
    const auto metrics = eventsNamed(lines, "metrics", "C");
    const auto epochs = eventsNamed(lines, "epoch", "i");
    ASSERT_EQ(metrics.size(), 4u);
    ASSERT_EQ(epochs.size(), 4u);
    for (const auto &line : metrics)
        EXPECT_NE(line.find("\"args\": {\"g\": 1.500000}"),
                  std::string::npos)
            << line;
    for (const auto &line : epochs) {
        EXPECT_NE(line.find("\"pid\": 3, \"tid\": 0"), std::string::npos);
        EXPECT_NE(line.find("\"hists\": {\"lat\": {\"count\": 1, "
                            "\"sum\": 3, \"max\": 3, "
                            "\"buckets\": [0, 0, 1]}}"),
                  std::string::npos)
            << line;
    }
    EXPECT_NE(epochs[0].find("\"epoch\": 0, \"cycle\": 0"),
              std::string::npos);
    EXPECT_NE(epochs[1].find("\"epoch\": 1, \"cycle\": 50"),
              std::string::npos);
    EXPECT_NE(epochs[2].find("\"epoch\": 2, \"cycle\": 100"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Telemetry, ReadsEveryGaugeEachEpochWithoutAJournal)
{
    // Each read of the energy gauge is a power-model integration
    // point, so a run without a trace must read the gauges at the
    // same cycles as a traced run: at start, every epoch and finish.
    EventQueue eq;
    TelemetryConfig config;
    config.enabled = true;
    config.epochCycles = 100;
    Telemetry telem(eq, config);
    std::vector<Cycle> reads;
    telem.addGauge("reads", [&] {
        reads.push_back(eq.now());
        return 0.0;
    });

    telem.startEpochs(nullptr);
    eq.run(350);
    telem.finishEpochs();
    // Start, ticks 100/200/300, and the closing read at the queue's
    // clock (the last event's cycle).
    EXPECT_EQ(reads, (std::vector<Cycle>{0, 100, 200, 300, 300}));
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
    on.withTelemetry(usToCycles(5.0));
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
