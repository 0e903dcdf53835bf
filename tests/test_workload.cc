/**
 * @file
 * Unit and property tests for the workload generators, the benchmark
 * catalog, and the trace format.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "workload/pattern.hh"
#include "workload/trace.hh"
#include "workload/workloads.hh"

namespace banshee {
namespace {

TEST(StreamPattern, SequentialWithWraparound)
{
    StreamPattern p(0x1000, 4 * 64, 64, 0.0, 0);
    Rng rng(1);
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 4; ++i) {
            const MemOp op = p.next(rng);
            EXPECT_EQ(op.addr, 0x1000u + i * 64);
            EXPECT_FALSE(op.isWrite);
            EXPECT_FALSE(op.dependsOnPrev);
        }
    }
}

TEST(StreamPattern, StartOffsetShiftsPhase)
{
    StreamPattern p(0, 1024, 64, 0.0, 0, 128);
    Rng rng(1);
    EXPECT_EQ(p.next(rng).addr, 128u);
}

TEST(StreamPattern, WriteFractionRespected)
{
    StreamPattern p(0, 1 << 20, 64, 0.3, 0);
    Rng rng(2);
    int writes = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        writes += p.next(rng).isWrite;
    EXPECT_NEAR(writes / double(n), 0.3, 0.02);
}

TEST(ZipfPagePattern, StaysInRegion)
{
    const std::uint64_t pages = 1000;
    ZipfPagePattern p(0x10000000, pages, 0.8, 4, 0.1, 3);
    Rng rng(3);
    for (int i = 0; i < 50000; ++i) {
        const MemOp op = p.next(rng);
        EXPECT_GE(op.addr, 0x10000000u);
        EXPECT_LT(op.addr, 0x10000000u + pages * kPageBytes);
    }
}

TEST(ZipfPagePattern, VisitsTouchContiguousLines)
{
    ZipfPagePattern p(0, 100, 0.5, 8, 0.0, 0);
    Rng rng(4);
    const MemOp first = p.next(rng);
    for (int i = 1; i < 8; ++i) {
        const MemOp op = p.next(rng);
        EXPECT_EQ(op.addr, first.addr + static_cast<Addr>(i) * 64);
        EXPECT_EQ(pageOf(op.addr), pageOf(first.addr));
    }
}

TEST(ZipfPagePattern, HigherAlphaMoreSkew)
{
    auto concentration = [](double alpha) {
        ZipfPagePattern p(0, 4096, alpha, 1, 0.0, 0);
        Rng rng(5);
        std::map<PageNum, int> counts;
        const int n = 100000;
        for (int i = 0; i < n; ++i)
            ++counts[pageOf(p.next(rng).addr)];
        // Fraction of accesses landing on the top-32 pages.
        std::vector<int> v;
        for (auto &kv : counts)
            v.push_back(kv.second);
        std::sort(v.rbegin(), v.rend());
        int top = 0;
        for (std::size_t i = 0; i < 32 && i < v.size(); ++i)
            top += v[i];
        return top / double(n);
    };
    EXPECT_GT(concentration(1.0), concentration(0.4) + 0.1);
}

TEST(ZipfPagePattern, TailPagesStillReachable)
{
    // Regions larger than the alias-table head must still touch
    // cold pages through the aggregated tail bucket.
    const std::uint64_t pages = 1ull << 18; // > 2^16 head
    ZipfPagePattern p(0, pages, 0.7, 1, 0.0, 0);
    Rng rng(6);
    std::set<PageNum> seen;
    for (int i = 0; i < 200000; ++i)
        seen.insert(pageOf(p.next(rng).addr));
    PageNum maxPage = 0;
    for (PageNum pg : seen)
        maxPage = std::max(maxPage, pg);
    EXPECT_GT(seen.size(), 10000u);
    EXPECT_GT(maxPage, pages / 2); // deep tail reached
}

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Digest of the first 200k ops of pagerank's vertex pattern: a
 *  384 MB shared heap, Zipf alpha 0.9, one line per visit, 10% stores
 *  and a mean gap of 3, from seed 42. */
std::uint64_t
pagerankZipfDigest()
{
    ZipfPagePattern p(1ull << 40, (384ull << 20) / kPageBytes, 0.9, 1, 0.10,
                      3);
    Rng rng(42);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 200000; ++i) {
        const MemOp op = p.next(rng);
        h = fnv1a(h, op.addr);
        h = fnv1a(h, op.nonMemBefore | std::uint64_t{op.isWrite} << 8 |
                         std::uint64_t{op.dependsOnPrev} << 9);
    }
    return h;
}

constexpr std::uint64_t kPagerankZipfDigest = 0xb0f3890c48368772ull;

TEST(ZipfPagePattern, PagerankDrawStreamIsPinned)
{
    EXPECT_EQ(pagerankZipfDigest(), kPagerankZipfDigest);
}

TEST(ZipfPagePattern, ConcurrentBuildsDrawTheSameStream)
{
    // Four threads build the same pattern at once, so they race on the
    // process-wide table cache, then draw from the shared table.
    constexpr int kThreads = 4;
    std::atomic<int> ready{0};
    std::vector<std::uint64_t> digests(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&ready, &digests, t] {
            ++ready;
            while (ready.load() < kThreads)
                std::this_thread::yield();
            digests[t] = pagerankZipfDigest();
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (std::uint64_t d : digests)
        EXPECT_EQ(d, kPagerankZipfDigest);
}

TEST(PointerChasePattern, LoadsDependOnPrevious)
{
    PointerChasePattern p(0, 1 << 20, 0.0, 2);
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        const MemOp op = p.next(rng);
        EXPECT_TRUE(op.dependsOnPrev);
        EXPECT_FALSE(op.isWrite);
        EXPECT_LT(op.addr, 1u << 20);
    }
}

TEST(PointerChasePattern, WritesDoNotChain)
{
    PointerChasePattern p(0, 1 << 20, 1.0, 2);
    Rng rng(8);
    EXPECT_FALSE(p.next(rng).dependsOnPrev);
}

TEST(MixPattern, WeightsRoughlyRespected)
{
    std::vector<MixPattern::Part> parts;
    parts.push_back({std::make_unique<StreamPattern>(0, 1 << 20, 64u,
                                                     0.0, 0),
                     0.25});
    parts.push_back(
        {std::make_unique<StreamPattern>(1ull << 40, 1 << 20, 64u, 0.0, 0),
         0.75});
    MixPattern mix(std::move(parts), 16);
    Rng rng(9);
    int second = 0;
    const int n = 64000;
    for (int i = 0; i < n; ++i)
        second += mix.next(rng).addr >= (1ull << 40);
    EXPECT_NEAR(second / double(n), 0.75, 0.05);
}

TEST(Patterns, DeterministicForSameSeed)
{
    auto make = [] {
        return ZipfPagePattern(0, 10000, 0.8, 4, 0.2, 3);
    };
    ZipfPagePattern a = make(), b = make();
    Rng ra(11), rb(11);
    for (int i = 0; i < 1000; ++i) {
        const MemOp x = a.next(ra), y = b.next(rb);
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.isWrite, y.isWrite);
        EXPECT_EQ(x.nonMemBefore, y.nonMemBefore);
    }
}

TEST(SampleGap, BoundedByTwiceMean)
{
    Rng rng(12);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LE(sampleGap(rng, 5), 10u);
    EXPECT_EQ(sampleGap(rng, 0), 0u);
}

//
// Workload catalog.
//

TEST(Workloads, PaperListHasSixteenEntries)
{
    EXPECT_EQ(WorkloadFactory::paperNames().size(), 16u);
    EXPECT_EQ(WorkloadFactory::graphNames().size(), 5u);
    EXPECT_EQ(WorkloadFactory::specNames().size(), 8u);
}

TEST(Workloads, EveryNameCreatesAPattern)
{
    for (const auto &name : WorkloadFactory::allNames()) {
        SCOPED_TRACE(name);
        EXPECT_TRUE(WorkloadFactory::exists(name));
        for (CoreId c : {0u, 7u, 15u}) {
            auto p = WorkloadFactory::create(name, c, 16, 1.0 / 16);
            ASSERT_NE(p, nullptr);
            Rng rng(c + 1);
            for (int i = 0; i < 100; ++i)
                p->next(rng);
        }
    }
}

TEST(Workloads, GraphSharesHeapSpecIsPrivate)
{
    Rng rng(13);
    auto g0 = WorkloadFactory::create("pagerank", 0, 16, 1.0 / 16);
    auto g1 = WorkloadFactory::create("pagerank", 1, 16, 1.0 / 16);
    // Graph threads draw from one shared region.
    const Addr a = g0->next(rng).addr & ~((1ull << 30) - 1);
    const Addr b = g1->next(rng).addr & ~((1ull << 30) - 1);
    EXPECT_EQ(a, b);

    auto s0 = WorkloadFactory::create("mcf", 0, 16, 1.0 / 16);
    auto s1 = WorkloadFactory::create("mcf", 1, 16, 1.0 / 16);
    const Addr c = s0->next(rng).addr >> 36;
    const Addr d = s1->next(rng).addr >> 36;
    EXPECT_NE(c, d); // distinct private heaps
}

TEST(Workloads, MixAssignsBenchmarksRoundRobin)
{
    Rng rng(14);
    // mix1 core 0 and core 8 both run libquantum (the list repeats).
    auto a = WorkloadFactory::create("mix1", 0, 16, 1.0 / 16);
    auto b = WorkloadFactory::create("mix1", 8, 16, 1.0 / 16);
    // Same benchmark on different cores -> same footprint size but
    // different private base.
    const Addr addrA = a->next(rng).addr;
    const Addr addrB = b->next(rng).addr;
    EXPECT_NE(addrA >> 36, addrB >> 36);
}

TEST(Workloads, UnknownNameRejected)
{
    EXPECT_FALSE(WorkloadFactory::exists("no-such-benchmark"));
}

//
// Trace format.
//

TEST(Trace, RoundTripThroughFile)
{
    std::vector<TraceRecord> records;
    for (int i = 0; i < 100; ++i) {
        TraceRecord r;
        r.addr = static_cast<Addr>(i) * 64;
        r.flags = (i % 3 == 0) ? TraceRecord::kWrite : 0;
        r.nonMemBefore = static_cast<std::uint8_t>(i % 7);
        records.push_back(r);
    }
    const std::string path = ::testing::TempDir() + "roundtrip.bsh";
    ASSERT_TRUE(writeTrace(path, records));
    const auto loaded = readTrace(path);
    ASSERT_EQ(loaded.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(loaded[i].addr, records[i].addr);
        EXPECT_EQ(loaded[i].flags, records[i].flags);
        EXPECT_EQ(loaded[i].nonMemBefore, records[i].nonMemBefore);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace banshee
