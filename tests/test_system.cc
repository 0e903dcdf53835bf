/**
 * @file
 * Integration and property tests: every scheme runs end-to-end on a
 * tiny system without losing a memory response; the lazy-coherence
 * invariant, which every Banshee run checks, holds under the full
 * machine; the bounding baselines bound; results are deterministic;
 * the scheme's page size fixes the controller striping; the memory
 * system's fetch completions survive re-entry; bench tables keep
 * over-wide cells apart.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <vector>

#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "sim/system_config.hh"

namespace banshee {
namespace {

SystemConfig
tiny(SchemeKind kind, const std::string &workload = "libquantum")
{
    SystemConfig c = SystemConfig::testDefault();
    c.workload = workload;
    c.withScheme(kind);
    if (kind == SchemeKind::Hma) {
        c.hma.epoch = usToCycles(100.0);
        c.hma.baseCost = usToCycles(5.0);
    }
    return c;
}

class AllSchemesTest : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(AllSchemesTest, RunsToCompletionOnTinySystem)
{
    SystemConfig c = tiny(GetParam());
    System system(c);
    const RunResult r = system.run();
    // Every core retired its measured instructions (each phase limit
    // may overshoot by at most one op's instruction group, so the
    // measured delta can fall short by that much per core).
    EXPECT_GE(r.instructions,
              static_cast<std::uint64_t>(c.numCores) *
                      c.measureInstrPerCore -
                  c.numCores * 256ull);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.dramCacheAccesses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, AllSchemesTest,
    ::testing::Values(SchemeKind::NoCache, SchemeKind::CacheOnly,
                      SchemeKind::Alloy, SchemeKind::Unison,
                      SchemeKind::Tdc, SchemeKind::Hma,
                      SchemeKind::Banshee),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        std::string n = schemeKindName(info.param);
        for (auto &ch : n)
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n;
    });

TEST(SystemIntegration, NoCacheMissesEverythingCacheOnlyNothing)
{
    {
        System s(tiny(SchemeKind::NoCache));
        EXPECT_DOUBLE_EQ(s.run().missRate, 1.0);
    }
    {
        System s(tiny(SchemeKind::CacheOnly));
        EXPECT_DOUBLE_EQ(s.run().missRate, 0.0);
    }
}

TEST(SystemIntegration, BansheeCachesACacheableWorkingSet)
{
    // libquantum at test scale fits the DRAM cache comfortably; after
    // warmup Banshee must be serving most accesses from in-package.
    SystemConfig c = tiny(SchemeKind::Banshee);
    System s(c);
    // autoWarmup (testDefault inherits it from scaledDefault) raises
    // the warmup budget to cover full sweeps of the streamed region,
    // so the measured window starts from steady-state residency.
    EXPECT_GT(s.config().warmupInstrPerCore, c.warmupInstrPerCore);
    const RunResult r = s.run();
    EXPECT_LT(r.missRate, 0.1);
    EXPECT_GT(r.inPkgBpi(TrafficCat::HitData), 0.0);
}

TEST(SystemIntegration, StaleInvariantHoldsUnderFullMachine)
{
    // Every Banshee run checks lazy coherence: a Tag Buffer miss whose
    // PTE or carried bits disagree with the tags panics. Running a
    // replacement-heavy workload to completion is the assertion.
    SystemConfig c = tiny(SchemeKind::Banshee, "omnetpp");
    System s(c);
    const RunResult r = s.run();
    EXPECT_GT(r.dramCacheAccesses, 0u);
}

TEST(SystemIntegration, CacheOnlyBeatsNoCacheOnHotWorkload)
{
    System a(tiny(SchemeKind::NoCache));
    System b(tiny(SchemeKind::CacheOnly));
    const Cycle noCache = a.run().cycles;
    const Cycle cacheOnly = b.run().cycles;
    EXPECT_LT(cacheOnly, noCache);
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    SystemConfig c = tiny(SchemeKind::Banshee);
    System a(c), b(c);
    const RunResult ra = a.run(), rb = b.run();
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.instructions, rb.instructions);
    EXPECT_EQ(ra.dramCacheMisses, rb.dramCacheMisses);
    for (std::size_t cat = 0; cat < kNumTrafficCats; ++cat) {
        EXPECT_EQ(ra.inPkgBytes[cat], rb.inPkgBytes[cat]);
        EXPECT_EQ(ra.offPkgBytes[cat], rb.offPkgBytes[cat]);
    }
}

TEST(SystemIntegration, SeedChangesResults)
{
    SystemConfig c = tiny(SchemeKind::Banshee);
    System a(c);
    c.seed = 777;
    System b(c);
    EXPECT_NE(a.run().cycles, b.run().cycles);
}

TEST(SystemIntegration, BansheeDemandPathHasNoTagTraffic)
{
    // The headline property (Table 1): Banshee's demand accesses move
    // no tag bytes; only writeback probes and counter samples touch
    // the tag rows. Compare against Alloy, where every access does.
    System banshee(tiny(SchemeKind::Banshee));
    System alloy(tiny(SchemeKind::Alloy));
    const RunResult rb = banshee.run();
    const RunResult ra = alloy.run();
    const double bansheeTag = rb.inPkgBpi(TrafficCat::Tag);
    const double alloyTag = ra.inPkgBpi(TrafficCat::Tag);
    EXPECT_LT(bansheeTag, alloyTag * 0.5);
}

TEST(SystemIntegration, PteUpdatesTriggeredByReplacementChurn)
{
    SystemConfig c = tiny(SchemeKind::Banshee, "omnetpp");
    c.banshee.tagBuffer.entries = 128; // small buffer: frequent flushes
    System s(c);
    const RunResult r = s.run();
    EXPECT_GT(r.pteUpdateRuns, 0u);
    EXPECT_GT(r.tlbShootdowns, 0u);
    for (std::uint32_t mc = 0; mc < s.config().mem.numMcs; ++mc)
        s.memSystem().scheme(mc).resizeHost()->verifyResidencyConsistent();
}

TEST(SystemIntegration, LargePagesRunEndToEnd)
{
    SystemConfig c = tiny(SchemeKind::Banshee, "pagerank");
    // 2 MB pages need a larger partition: 64 MB -> 8 frames per MC.
    c.mem.inPkgCapacity = 64ull << 20;
    c.footprintScale = 0.25;
    c.banshee.pageBits = kLargePageBits;
    c.banshee.samplingCoeff = 0.001;
    c.tlb.missLatency = 0;
    System s(c);
    const RunResult r = s.run();
    EXPECT_GT(r.dramCacheAccesses, 0u);
}

TEST(SystemIntegration, EachPageStaysOnOneController)
{
    // The scheme's page size fixes the controller striping (paper
    // Section 4.3): every line of a page routes to one controller, and
    // adjacent pages route to different ones. With 2 MB pages a 4 KB
    // stripe would shred each cache page over all four controllers.
    for (const std::uint32_t pageBits : {kPageBits, kLargePageBits}) {
        SystemConfig c = tiny(SchemeKind::Banshee, "pagerank");
        c.mem.inPkgCapacity = 64ull << 20;
        c.banshee.pageBits = pageBits;
        ASSERT_EQ(c.mem.numMcs, 4u);
        System s(c);
        const MemSystem &mem = s.memSystem();
        const LineAddr linesPerPage = (1ull << pageBits) / kLineBytes;
        for (LineAddr page = 100; page < 108; ++page) {
            const std::uint32_t mc = mem.mcOf(page * linesPerPage);
            int strays = 0;
            for (LineAddr k = 1; k < linesPerPage; ++k)
                strays += mem.mcOf(page * linesPerPage + k) != mc;
            EXPECT_EQ(strays, 0) << "page " << page << ", " << pageBits
                                 << " page bits";
            EXPECT_NE(mem.mcOf((page + 1) * linesPerPage), mc)
                << "page " << page << ", " << pageBits << " page bits";
        }
    }
}

TEST(SystemIntegration, LargePagesWithUndividableSlicesFailFast)
{
    // Resize slices partition each controller's sets; 2 MB pages on a
    // 64 MB cache leave 2 sets per MC, which cannot split over 8
    // slices. Must fail fast with the config error, not an internal
    // assert inside the resize domain.
    SystemConfig c = tiny(SchemeKind::Banshee, "pagerank");
    c.mem.inPkgCapacity = 64ull << 20;
    c.banshee.pageBits = kLargePageBits;
    c.withResizeStep(1, 4);
    c.resize.hash.numSlices = 8;
    EXPECT_EXIT(System s(c), ::testing::ExitedWithCode(1),
                "divide into 8 slices");

    // On the 8 MB test cache a controller holds one 2 MB page, less
    // than one 4-way set, with or without resize.
    c.mem.inPkgCapacity = 8ull << 20;
    EXPECT_EXIT(System s(c), ::testing::ExitedWithCode(1),
                "holds 1 pages of 2.21 B, fewer than one 4-way set");
    c.resize.enabled = false;
    EXPECT_EXIT(System s(c), ::testing::ExitedWithCode(1),
                "fewer than one 4-way set");
}

TEST(SystemIntegration, BadWorkloadsFailFastNamingTheFix)
{
    EXPECT_EXIT(System s(tiny(SchemeKind::Banshee, "nosuch")),
                ::testing::ExitedWithCode(1),
                "unknown workload 'nosuch' — use a name from");

    // Tenants run per-core workloads inside their own address regions.
    auto tenants = [](const std::string &workload) {
        SystemConfig c = tiny(SchemeKind::Banshee);
        c.withTenants({{"a", "mcf", 1.0, 0}, {"b", workload, 1.0, 0}});
        return c;
    };
    EXPECT_EXIT(System s(tenants("nosuch")), ::testing::ExitedWithCode(1),
                "tenant 'b': unknown workload 'nosuch' — use a per-core");
    EXPECT_EXIT(System s(tenants("pagerank")),
                ::testing::ExitedWithCode(1),
                "tenant 'b': graph workload 'pagerank' .* per-core");
    EXPECT_EXIT(System s(tenants("trace:/dev/null")),
                ::testing::ExitedWithCode(1),
                "tenant 'b': trace replay .* single-tenant run");
}

TEST(SystemIntegration, BadResizeConfigsFailFastNamingTheFix)
{
    SystemConfig weights = tiny(SchemeKind::Banshee);
    weights.withTenants({{"a", "mcf", 1.0, 0}, {"b", "omnetpp", 1.0, 0}});
    weights.resize.tenantWeights.push_back(1.0);
    EXPECT_EXIT(System s(weights), ::testing::ExitedWithCode(1),
                "3 entries for 2 tenants — give one weight per tenant");

    SystemConfig unison = tiny(SchemeKind::Unison);
    unison.withResizeStep(1, 4);
    EXPECT_EXIT(System s(unison), ::testing::ExitedWithCode(1),
                "scheme 'Unison' cannot resize — use the Banshee scheme");
}

TEST(SystemIntegration, BadCoreParamsFailFastNamingTheField)
{
    // Each of these used to crash (a division by zero), hang (a core
    // that yields before every op) or end in a misleading lost-response
    // panic.
    auto with = [](auto set) {
        SystemConfig c = tiny(SchemeKind::NoCache, "pagerank");
        set(c.core);
        return c;
    };
    EXPECT_EXIT(System s(with([](CoreParams &p) { p.issueWidth = 0; })),
                ::testing::ExitedWithCode(1),
                "core.issueWidth is 0 .* at least 1");
    EXPECT_EXIT(System s(with([](CoreParams &p) { p.mshrs = 0; })),
                ::testing::ExitedWithCode(1),
                "core.mshrs is 0 .* at least 1");
    EXPECT_EXIT(System s(with([](CoreParams &p) { p.quantumOps = 0; })),
                ::testing::ExitedWithCode(1),
                "core.quantumOps is 0 .* at least 1");
    EXPECT_EXIT(System s(with([](CoreParams &p) { p.codeBytes = 0; })),
                ::testing::ExitedWithCode(1),
                "core.codeBytes is 0 .* at least one 64 B line");
}

TEST(SystemIntegration, LargePagesWithResizeRunValidlyConfigured)
{
    // The positive path the two fail-fast checks guard: one MC keeps
    // a 2 MB-paged 64 MB cache at 8 sets, which does split over 8
    // slices — resize and large pages compose.
    SystemConfig c = tiny(SchemeKind::Banshee, "pagerank");
    c.mem.numMcs = 1;
    c.mem.inPkgCapacity = 64ull << 20;
    c.footprintScale = 0.25;
    c.banshee.pageBits = kLargePageBits;
    c.banshee.samplingCoeff = 0.001;
    c.tlb.missLatency = 0;
    c.withResizeStep(1, 4);
    System s(c);
    const RunResult r = s.run();
    s.resizeController()->stopEpochs();
    s.eventQueue().run();
    EXPECT_GT(r.dramCacheAccesses, 0u);
    EXPECT_EQ(s.resizeController()->activeSlices(), 4u);
    s.resizeController()->verifyResidencyConsistent();
}

TEST(SystemIntegration, BatmanRunsAndBypassActivatesUnderPressure)
{
    SystemConfig c = tiny(SchemeKind::Banshee, "libquantum");
    c.enableBatman = true;
    c.batman.epoch = usToCycles(20.0);
    System s(c);
    const RunResult r = s.run();
    EXPECT_GT(r.dramCacheAccesses, 0u);
}

TEST(SystemIntegration, MeasurePhaseExcludesWarmup)
{
    SystemConfig c = tiny(SchemeKind::NoCache);
    c.warmupInstrPerCore = 10'000;
    c.measureInstrPerCore = 20'000;
    System s(c);
    const RunResult r = s.run();
    // Measured instructions reflect only the measure phase.
    EXPECT_NEAR(static_cast<double>(r.instructions),
                static_cast<double>(c.numCores) * c.measureInstrPerCore,
                c.numCores * 300.0);
}

TEST(SystemIntegration, AvgFetchLatencyIsPinned)
{
    // No golden reads the mean LLC-miss service time, so pin it here.
    // Unison's misses continue after a tag probe, Banshee's are
    // routed by the mappings the PTEs carry, and NoCache on the sweep
    // also pins that a run with no in-package device keeps its warmup
    // budget (autoWarmup raises it only when there is a DRAM cache).
    struct Pin
    {
        SchemeKind kind;
        const char *workload;
        double latency;
    };
    const Pin pins[] = {
        {SchemeKind::NoCache, "libquantum", 737.80489958066653},
        {SchemeKind::Unison, "omnetpp", 3709.0820353275885},
        {SchemeKind::Banshee, "omnetpp", 2302.5117731367732},
    };
    for (const Pin &p : pins) {
        System s(tiny(p.kind, p.workload));
        EXPECT_DOUBLE_EQ(s.run().avgFetchLatency, p.latency)
            << schemeKindName(p.kind) << " on " << p.workload;
    }
}

TEST(MemSystemFetch, ReentrantCompletionsKeepTheirOwnRecords)
{
    // Eight fetches in flight; each completion starts the next fetch
    // from inside its callback, so the schemes' completion records are
    // freed and reused while others are outstanding. (The hierarchy
    // times each miss; test_cache.cc checks that.)
    System sys(tiny(SchemeKind::NoCache));
    MemSystem &mem = sys.memSystem();
    EventQueue &eq = sys.eventQueue();
    constexpr int kInFlight = 8;
    constexpr int kTotal = 64;
    std::vector<Cycle> issued(kTotal, 0), completed(kTotal, 0);
    std::vector<int> calls(kTotal, 0);
    int started = 0;
    std::function<void()> startOne = [&] {
        const int id = started++;
        issued[id] = eq.now();
        // Lines spread over banks and rows, so latencies differ.
        const LineAddr line = 0x40000 + static_cast<LineAddr>(id) * 4099;
        mem.fetchLine(line, MappingInfo{}, [&, id](Cycle when) {
            ++calls[id];
            completed[id] = when;
            if (started < kTotal)
                startOne();
        });
    };
    for (int i = 0; i < kInFlight; ++i)
        startOne();
    eq.run();

    ASSERT_EQ(started, kTotal);
    for (int id = 0; id < kTotal; ++id) {
        EXPECT_EQ(calls[id], 1) << "fetch " << id;
        EXPECT_GE(completed[id], issued[id]) << "fetch " << id;
    }
}

TEST(Runner, ParallelSweepPreservesOrderAndDeterminism)
{
    SystemConfig base = SystemConfig::testDefault();
    base.warmupInstrPerCore = 5'000;
    base.measureInstrPerCore = 10'000;
    auto exps = schemeSweep(base, "libquantum");
    std::vector<std::string> labels;
    for (const Experiment &e : exps)
        labels.push_back(e.label);

    // The committed bench goldens are checked byte for byte at
    // whatever --threads the checker uses, so the whole JSON document
    // must not depend on the thread count.
    auto sweepJson = [&](unsigned threads) {
        const std::string path = ::testing::TempDir() + "sweep_t" +
                                 std::to_string(threads) + ".json";
        writeResultsJson(path, "runner_test", labels,
                         runExperiments(exps, threads, false));
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        std::remove(path.c_str());
        return ss.str();
    };
    const std::string seq = sweepJson(1);
    EXPECT_NE(seq.find("\"label\": \"libquantum/Banshee\""),
              std::string::npos);
    EXPECT_EQ(seq, sweepJson(4));
}

TEST(Runner, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
}

TEST(Runner, GeomeanHandlesEmptyAndZeroWithoutNan)
{
    // Degenerate inputs are defined, finite results — not NaN/UB.
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({0.0}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({0.0, 4.0, 9.0}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
}

TEST(Report, CellsWiderThanTheirColumnStaySeparated)
{
    // Columns are 4 wide, the first 8; a cell that fits is padded to
    // its column, a wider one to its length plus one space.
    const TablePrinter table({"name", "a", "b"}, 4);
    ::testing::internal::CaptureStdout();
    table.printRow({"ab", "1.0", "x"});
    table.printRow({"Banshee FBR", "1.24", "longer"});
    EXPECT_EQ(::testing::internal::GetCapturedStdout(),
              "ab      1.0 x   \n"
              "Banshee FBR 1.24 longer \n");
}

} // namespace
} // namespace banshee
