/**
 * @file
 * Unit tests for the SRAM cache and the three-level hierarchy:
 * LRU replacement, dirty handling, inclusion/back-invalidation,
 * MSHR merging and LLC writeback generation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "common/event_queue.hh"

namespace banshee {
namespace {

CacheParams
smallCache(std::uint32_t ways)
{
    CacheParams p;
    p.name = "t";
    p.sizeBytes = 64ull * 8 * ways; // 8 sets
    p.ways = ways;
    return p;
}

TEST(Cache, HitAfterInsert)
{
    Cache c(smallCache(2));
    EXPECT_FALSE(c.lookup(8, false));
    c.insert(8, false);
    EXPECT_TRUE(c.lookup(8, false));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(smallCache(2));
    // Same set: lines 0, 8, 16 with 8 sets.
    c.insert(0, false);
    c.insert(8, false);
    c.lookup(0, false); // refresh 0
    const auto victim = c.insert(16, false);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.line, 8u);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(16));
}

TEST(Cache, DirtyBitOnWriteAndEviction)
{
    Cache c(smallCache(1));
    c.insert(0, false);
    c.lookup(0, true); // store
    const auto victim = c.insert(8, false);
    ASSERT_TRUE(victim.valid);
    EXPECT_TRUE(victim.dirty);
}

TEST(Cache, InvalidateReturnsState)
{
    Cache c(smallCache(2));
    c.insert(8, true);
    const auto removed = c.invalidate(8);
    EXPECT_TRUE(removed.valid);
    EXPECT_TRUE(removed.dirty);
    EXPECT_FALSE(c.contains(8));
    EXPECT_FALSE(c.invalidate(8).valid); // second time: absent
}

TEST(Cache, MetaRoundTrip)
{
    Cache c(smallCache(2));
    c.insert(8, false, 0xBEEF);
    EXPECT_EQ(c.meta(8), 0xBEEF);
    c.setMeta(8, 0x1234);
    EXPECT_EQ(c.meta(8), 0x1234);
}

TEST(Cache, InsertPrefersInvalidWays)
{
    Cache c(smallCache(4));
    c.insert(0, false);
    const auto v = c.insert(8, false);
    EXPECT_FALSE(v.valid); // three ways were still empty
}

class CacheGeometryTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheGeometryTest, FillsToCapacityWithoutEvicting)
{
    const auto [setsLog2, ways] = GetParam();
    const std::uint32_t sets = 1u << setsLog2;
    CacheParams p;
    p.sizeBytes = static_cast<std::uint64_t>(sets) * ways * 64;
    p.ways = static_cast<std::uint32_t>(ways);
    Cache c(p);
    // Insert exactly capacity distinct lines mapping evenly to sets.
    std::uint64_t evictions = 0;
    for (std::uint32_t i = 0; i < sets * ways; ++i) {
        if (c.insert(i, false).valid)
            ++evictions;
    }
    EXPECT_EQ(evictions, 0u);
    // One more per set must evict.
    if (c.insert(sets * static_cast<std::uint32_t>(ways), false).valid)
        ++evictions;
    EXPECT_EQ(evictions, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Combine(::testing::Values(2, 4, 6),
                       ::testing::Values(1, 2, 4, 8, 16)));

//
// Hierarchy tests with a recording backend.
//

class RecordingBackend : public MemBackend
{
  public:
    void
    fetchLine(LineAddr line, const MappingInfo &, CoreId,
              MissDoneFn done) override
    {
        fetches.push_back(line);
        pending.emplace_back(line, std::move(done));
    }

    void
    writebackLine(LineAddr line) override
    {
        writebacks.push_back(line);
    }

    /** Complete all outstanding fetches at cycle @p when. */
    void
    completeAll(Cycle when = 100)
    {
        auto moved = std::move(pending);
        pending.clear();
        for (auto &[line, done] : moved)
            done(when);
    }

    std::vector<LineAddr> fetches;
    std::vector<LineAddr> writebacks;
    std::vector<std::pair<LineAddr, MissDoneFn>> pending;
};

HierarchyParams
tinyHierarchy(std::uint32_t cores = 2)
{
    HierarchyParams p;
    p.numCores = cores;
    p.l1iSize = 1024;
    p.l1iWays = 2;
    p.l1dSize = 1024;
    p.l1dWays = 2;
    p.l2Size = 4096;
    p.l2Ways = 4;
    p.l3Size = 16384;
    p.l3Ways = 4;
    return p;
}

TEST(Hierarchy, MissThenHitLevels)
{
    RecordingBackend backend;
    CacheHierarchy h(tinyHierarchy(), backend);
    bool done = false;
    auto r = h.access(0, 0x1000, false, MappingInfo{},
                      [&done](Cycle) { done = true; });
    EXPECT_EQ(r.level, CacheHierarchy::Level::Mem);
    EXPECT_TRUE(r.pending);
    backend.completeAll();
    EXPECT_TRUE(done);
    // Now resident in L1.
    r = h.access(0, 0x1000, false, MappingInfo{}, nullptr);
    EXPECT_EQ(r.level, CacheHierarchy::Level::L1);
    EXPECT_FALSE(r.pending);
}

TEST(Hierarchy, CrossCoreSharingHitsInL3)
{
    RecordingBackend backend;
    CacheHierarchy h(tinyHierarchy(), backend);
    h.access(0, 0x1000, false, MappingInfo{}, nullptr);
    backend.completeAll();
    // Core 1 misses its private levels but hits the shared L3.
    auto r = h.access(1, 0x1000, false, MappingInfo{}, nullptr);
    EXPECT_EQ(r.level, CacheHierarchy::Level::L3);
}

TEST(Hierarchy, MshrMergesConcurrentMisses)
{
    RecordingBackend backend;
    CacheHierarchy h(tinyHierarchy(), backend);
    int completions = 0;
    auto cb = [&completions](Cycle) { ++completions; };
    h.access(0, 0x2000, false, MappingInfo{}, cb);
    h.access(1, 0x2000, false, MappingInfo{}, cb);
    EXPECT_EQ(backend.fetches.size(), 1u); // merged
    backend.completeAll();
    EXPECT_EQ(completions, 2); // both waiters complete
}

TEST(Hierarchy, DirtyLineEventuallyWrittenBack)
{
    RecordingBackend backend;
    CacheHierarchy h(tinyHierarchy(1), backend);
    h.access(0, 0x1000, true, MappingInfo{}, nullptr); // store
    backend.completeAll();
    // Evict it by filling far more lines than total capacity.
    for (int i = 1; i < 2048; ++i) {
        h.access(0, 0x1000 + static_cast<Addr>(i) * 64, false,
                 MappingInfo{}, nullptr);
        backend.completeAll();
    }
    bool found = false;
    for (LineAddr wb : backend.writebacks)
        if (wb == lineOf(0x1000))
            found = true;
    EXPECT_TRUE(found);
}

TEST(Hierarchy, InclusionBackInvalidatesPrivateCopies)
{
    RecordingBackend backend;
    HierarchyParams p = tinyHierarchy(1);
    CacheHierarchy h(p, backend);
    h.access(0, 0x1000, false, MappingInfo{}, nullptr);
    backend.completeAll();
    EXPECT_TRUE(h.l1d(0).contains(lineOf(0x1000)));
    // Flood the L3 set that 0x1000 maps to until it is evicted; the
    // L1 copy must disappear with it (inclusion).
    const std::uint32_t l3Sets = h.l3().numSets();
    for (std::uint32_t i = 1; i <= p.l3Ways + 1; ++i) {
        const Addr addr = 0x1000 + static_cast<Addr>(i) * l3Sets * 64;
        h.access(0, addr, false, MappingInfo{}, nullptr);
        backend.completeAll();
    }
    EXPECT_FALSE(h.l3().contains(lineOf(0x1000)));
    EXPECT_FALSE(h.l1d(0).contains(lineOf(0x1000)));
    EXPECT_FALSE(h.presentAnywhere(lineOf(0x1000)));
}

TEST(Hierarchy, WritebackCarriesNoMappingPath)
{
    // LLC writebacks must reach the backend via writebackLine (the
    // path that has no PTE mapping attached — Banshee's probe case).
    RecordingBackend backend;
    CacheHierarchy h(tinyHierarchy(1), backend);
    h.access(0, 0x9000, true, MappingInfo{}, nullptr);
    backend.completeAll();
    const std::size_t before = backend.writebacks.size();
    for (int i = 1; i < 4096; ++i) {
        h.access(0, 0x9000 + static_cast<Addr>(i) * 64, false,
                 MappingInfo{}, nullptr);
        backend.completeAll();
    }
    EXPECT_GT(backend.writebacks.size(), before);
}

TEST(Hierarchy, FetchPathUsesL1I)
{
    RecordingBackend backend;
    CacheHierarchy h(tinyHierarchy(1), backend);
    auto r = h.fetch(0, 0x4000, MappingInfo{}, nullptr);
    EXPECT_EQ(r.level, CacheHierarchy::Level::Mem);
    backend.completeAll();
    r = h.fetch(0, 0x4000, MappingInfo{}, nullptr);
    EXPECT_EQ(r.level, CacheHierarchy::Level::L1);
    EXPECT_TRUE(h.l1i(0).contains(lineOf(0x4000)));
    EXPECT_FALSE(h.l1d(0).contains(lineOf(0x4000)));
}

} // namespace
} // namespace banshee
