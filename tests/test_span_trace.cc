/**
 * @file
 * Span-trace invariants: the sampler is a pure seeded hash (identical
 * sampled sets regardless of thread count or call order), tracing off
 * leaves simulation results bit-identical, sweeps route each
 * experiment to its own trace file whose bytes do not depend on the
 * worker-thread count, and the emitted files are well-formed Chrome
 * trace-event JSON that carries the run metadata and every telemetry
 * epoch sample.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/system.hh"
#include "telemetry/span_trace.hh"
#include "telemetry/trace_sink.hh"

namespace banshee {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(SpanSampler, DeterministicAndSeedSensitive)
{
    for (PageNum page = 0; page < 4096; ++page) {
        EXPECT_EQ(PageJournal::sampled(page, 1, 4),
                  PageJournal::sampled(page, 1, 4));
    }
    // Different seeds pick different sets (overlap is fine; identity
    // would mean the seed is ignored).
    std::size_t differs = 0;
    for (PageNum page = 0; page < 4096; ++page) {
        if (PageJournal::sampled(page, 1, 4) !=
            PageJournal::sampled(page, 2, 4))
            ++differs;
    }
    EXPECT_GT(differs, 0u);
}

TEST(SpanSampler, ShiftControlsFraction)
{
    // shift 0 samples everything.
    for (PageNum page = 0; page < 256; ++page)
        EXPECT_TRUE(PageJournal::sampled(page, 42, 0));

    // shift 4 samples ~1/16 of a large page range (the hash is not a
    // counter, so allow a generous 2x band).
    std::size_t hits = 0;
    const std::size_t total = 1u << 16;
    for (PageNum page = 0; page < total; ++page)
        hits += PageJournal::sampled(page, 42, 4) ? 1 : 0;
    EXPECT_GT(hits, total / 32);
    EXPECT_LT(hits, total / 8);
}

TEST(SpanTracePath, LabelSanitizedAndDirectoriesCreated)
{
    EXPECT_EQ(sanitizeRunLabel("a/b c:d"), "a_b_c_d");
    EXPECT_EQ(sanitizeRunLabel("ok-1.2_x"), "ok-1.2_x");

    // Plain file: the label splices in before the extension; without
    // a label the path is used as given.
    EXPECT_EQ(resolveTracePath("out.trace.json", "w/x"),
              "out-w_x.trace.json");
    EXPECT_EQ(resolveTracePath("out.json", "w/x"), "out-w_x.json");
    EXPECT_EQ(resolveTracePath("out.trace.json", ""), "out.trace.json");
    EXPECT_EQ(resolveTracePath("", "w"), "");

    // Directory path: created on demand, one file per label.
    const std::string dir = ::testing::TempDir() + "span_path_dir";
    std::remove((dir + "/lbl.trace.json").c_str());
    const std::string p = resolveTracePath(dir + "/", "lbl");
    EXPECT_EQ(p, dir + "/lbl.trace.json");
    std::FILE *f = std::fopen(p.c_str(), "w");
    ASSERT_NE(f, nullptr) << "directory was not created";
    std::fclose(f);
    std::remove(p.c_str());
}

SystemConfig
tinyConfig()
{
    SystemConfig c = SystemConfig::testDefault();
    c.numCores = 4;
    c.warmupInstrPerCore = 5'000;
    c.measureInstrPerCore = 10'000;
    return c;
}

TEST(SpanTrace, TracingDoesNotPerturbSimulation)
{
    SystemConfig plain = tinyConfig();
    const std::string path =
        ::testing::TempDir() + "span_perturb.trace.json";
    SystemConfig traced = tinyConfig();
    traced.withSpanTrace(path, /*sampleShift=*/2);

    RunResult a = System(plain).run();
    RunResult b = System(traced).run();
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dramCacheAccesses, b.dramCacheAccesses);
    EXPECT_EQ(a.dramCacheMisses, b.dramCacheMisses);
    EXPECT_EQ(a.inPkgBytes, b.inPkgBytes);
    EXPECT_EQ(a.offPkgBytes, b.offPkgBytes);
    std::remove(path.c_str());
}

TEST(SpanTrace, WellFormedAndCausallyComplete)
{
    const std::string path =
        ::testing::TempDir() + "span_wellformed.trace.json";
    SystemConfig c = tinyConfig();
    c.withTelemetry(usToCycles(2.0));
    c.withSpanTrace(path, /*sampleShift=*/2);
    {
        System sys(c);
        sys.run();
        // finish() ran in collect(); the dtor close is idempotent.
    }
    const std::string trace = slurp(path);
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.front(), '[');
    EXPECT_EQ(trace.substr(trace.size() - 2), "]\n");

    // Matched duration + async pairs.
    EXPECT_EQ(countOccurrences(trace, "\"ph\": \"B\""),
              countOccurrences(trace, "\"ph\": \"E\""));
    EXPECT_EQ(countOccurrences(trace, "\"ph\": \"b\""),
              countOccurrences(trace, "\"ph\": \"e\""));

    // The causal chain's landmarks all appear: sampled accesses,
    // fetch spans, channel queue/service slices, residency spans and
    // named tracks.
    EXPECT_GT(countOccurrences(trace, "\"name\": \"access\""), 0u);
    EXPECT_GT(countOccurrences(trace, "\"name\": \"fetch\""), 0u);
    EXPECT_GT(countOccurrences(trace, "\"name\": \"queue\""), 0u);
    EXPECT_GT(countOccurrences(trace, "\"name\": \"service\""), 0u);
    EXPECT_GT(countOccurrences(trace, "\"name\": \"resident\""), 0u);
    EXPECT_GT(countOccurrences(trace, "\"name\": \"thread_name\""), 0u);

    // One file per run: its run records once each, and every epoch
    // sample telemetry numbered (0, 1, ...) as an "epoch" instant
    // in order, each with its "metrics" counter.
    for (const char *once : {"run_info", "measure_start", "run_end"}) {
        EXPECT_EQ(countOccurrences(trace, std::string("\"name\": \"") +
                                              once + "\", \"ph\": \"i\""),
                  1u)
            << once;
    }
    const std::string epochHead = "\"name\": \"epoch\", \"ph\": \"i\"";
    std::size_t epochs = 0;
    for (std::size_t pos = trace.find(epochHead); pos != std::string::npos;
         pos = trace.find(epochHead, pos + 1)) {
        const std::string want =
            "\"args\": {\"epoch\": " + std::to_string(epochs) + ", ";
        EXPECT_EQ(trace.compare(trace.find("\"args\": {", pos), want.size(),
                                want),
                  0)
            << "epoch instant " << epochs << " out of order";
        ++epochs;
    }
    EXPECT_GE(epochs, 3u); // baseline + at least one tick + closing
    EXPECT_EQ(countOccurrences(trace, "\"name\": \"metrics\", \"ph\": \"C\""),
              epochs);
    // run_end closes the run before the journal's truncation tail.
    EXPECT_LT(trace.find("\"name\": \"run_end\""),
              trace.find("\"truncated\""));
    std::remove(path.c_str());
}

TEST(SpanTrace, SweepRoutesPerLabelAndIsThreadCountInvariant)
{
    auto sweepInto = [](const std::string &dir, unsigned threads) {
        std::vector<Experiment> exps;
        for (const char *wl : {"pagerank", "libquantum"}) {
            SystemConfig c = tinyConfig();
            c.workload = wl;
            c.withSpanTrace(dir + "/", /*sampleShift=*/2);
            exps.push_back({std::string(wl) + "/Banshee", c});
        }
        runExperiments(exps, threads, /*showProgress=*/false);
    };

    const std::string dir1 = ::testing::TempDir() + "span_sweep_t1";
    const std::string dir2 = ::testing::TempDir() + "span_sweep_t2";
    sweepInto(dir1, 1);
    sweepInto(dir2, 2);

    for (const char *name :
         {"pagerank_Banshee.trace.json", "libquantum_Banshee.trace.json"}) {
        const std::string a = slurp(dir1 + "/" + name);
        const std::string b = slurp(dir2 + "/" + name);
        EXPECT_FALSE(a.empty()) << name;
        EXPECT_EQ(a, b) << name
                        << ": trace bytes depend on worker threads";
        std::remove((dir1 + "/" + name).c_str());
        std::remove((dir2 + "/" + name).c_str());
    }
}

} // namespace
} // namespace banshee
