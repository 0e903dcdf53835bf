/**
 * @file
 * Unit tests for the SRAM cache and the three-level hierarchy:
 * LRU replacement, dirty handling, inclusion/back-invalidation,
 * MSHR merging, LLC-miss timing and LLC writeback generation.
 */

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "common/event_queue.hh"
#include "common/rng.hh"

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
    const auto victim = c.insert(16, false).victim;
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
    const auto victim = c.insert(8, false).victim;
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
    const Cache::Slot s = c.contains(8);
    ASSERT_TRUE(s);
    EXPECT_EQ(c.meta(s), 0xBEEF);
    c.setMeta(s, 0x1234);
    EXPECT_EQ(c.meta(c.contains(8)), 0x1234);
}

TEST(Cache, SlotHandlesNameTheLine)
{
    // insert, lookup and contains agree on the way holding a line; the
    // slot accessors act on that way, and a slot stops holding its
    // line once the line is invalidated or evicted.
    Cache c(smallCache(2));
    const Cache::Slot s = c.insert(8, false).slot;
    ASSERT_TRUE(s);
    EXPECT_EQ(c.lookup(8, false).index(), s.index());
    EXPECT_EQ(c.contains(8).index(), s.index());
    EXPECT_TRUE(c.holds(s, 8));
    EXPECT_FALSE(c.holds(s, 16));
    EXPECT_FALSE(c.holds(Cache::Slot(1u << 20), 8)); // out of range
    EXPECT_TRUE(c.holds(Cache::Slot(s.index()), 8)); // rebuilt handle

    c.setDirty(s);
    EXPECT_TRUE(c.invalidate(8).dirty);
    EXPECT_FALSE(c.holds(s, 8));
    EXPECT_FALSE(c.lookup(8, false));
    EXPECT_FALSE(c.contains(8));

    // One way: inserting 16 evicts 8 from the same slot.
    Cache one(smallCache(1));
    const Cache::Slot s8 = one.insert(8, false).slot;
    const Cache::Placement p = one.insert(16, false);
    EXPECT_EQ(p.slot.index(), s8.index());
    EXPECT_EQ(p.victim.line, 8u);
    EXPECT_FALSE(one.holds(s8, 8));
}

TEST(Cache, InsertPrefersInvalidWays)
{
    Cache c(smallCache(4));
    c.insert(0, false);
    const auto v = c.insert(8, false).victim;
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
        if (c.insert(i, false).victim.valid)
            ++evictions;
    }
    EXPECT_EQ(evictions, 0u);
    // One more per set must evict.
    if (c.insert(sets * static_cast<std::uint32_t>(ways), false)
            .victim.valid)
        ++evictions;
    EXPECT_EQ(evictions, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Combine(::testing::Values(2, 4, 6),
                       ::testing::Values(1, 2, 4, 8, 16)));

TEST(Cache, WaysBeyondTheSetRecordAbort)
{
    // A set's LRU order packs one 4-bit way index per rank in a word.
    EXPECT_DEATH(Cache{smallCache(3)},
                 "t: ways must be a power of two in .1, 16., not 3");
    EXPECT_DEATH(Cache{smallCache(32)},
                 "t: ways must be a power of two in .1, 16., not 32");
}

/**
 * Reference model: LRU by per-way stamps from one global clock, the
 * first free way on a fill, and a scan for the smallest stamp on an
 * eviction. Slots are set * ways + way, as in Cache.
 */
class StampLru
{
  public:
    StampLru(std::uint32_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways), entries_(sets * ways)
    {
    }

    int
    find(LineAddr line) const
    {
        const std::uint32_t base = (line % sets_) * ways_;
        for (std::uint32_t w = base; w < base + ways_; ++w) {
            if (entries_[w].valid && entries_[w].line == line)
                return static_cast<int>(w);
        }
        return -1;
    }

    int
    lookup(LineAddr line, bool isWrite)
    {
        const int i = find(line);
        if (i >= 0) {
            entries_[i].stamp = ++clock_;
            entries_[i].dirty |= isWrite;
        }
        return i;
    }

    std::pair<int, Cache::Victim>
    insert(LineAddr line, bool dirty, std::uint64_t meta)
    {
        const std::uint32_t base = (line % sets_) * ways_;
        std::uint32_t pick = base;
        for (std::uint32_t w = base; w < base + ways_; ++w) {
            if (!entries_[w].valid) {
                pick = w;
                break;
            }
            if (entries_[w].stamp < entries_[pick].stamp)
                pick = w;
        }
        Cache::Victim victim = entries_[pick].victim();
        entries_[pick] = Entry{line, true, dirty, meta, ++clock_};
        return {static_cast<int>(pick), victim};
    }

    Cache::Victim
    invalidate(LineAddr line)
    {
        const int i = find(line);
        if (i < 0)
            return Cache::Victim{};
        const Cache::Victim out = entries_[i].victim();
        entries_[i].valid = false;
        return out;
    }

    void setDirty(int i) { entries_[i].dirty = true; }
    void setMeta(int i, std::uint64_t meta) { entries_[i].meta = meta; }
    std::uint64_t meta(int i) const { return entries_[i].meta; }

  private:
    struct Entry
    {
        LineAddr line = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t meta = 0;
        std::uint64_t stamp = 0;

        Cache::Victim
        victim() const
        {
            return valid ? Cache::Victim{true, dirty, line, meta}
                         : Cache::Victim{};
        }
    };

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<Entry> entries_;
    std::uint64_t clock_ = 0;
};

class CacheReferenceTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheReferenceTest, MatchesStampLru)
{
    // A seeded random mix of lookups, fills, invalidations and slot
    // updates over three times the lines the cache holds, so every set
    // fills, evicts and refills freed ways; every result must match
    // the reference.
    const std::uint32_t ways = GetParam();
    constexpr std::uint32_t kSets = 8;
    Cache cache(smallCache(ways));
    StampLru ref(kSets, ways);
    const std::uint64_t universe = 3ull * kSets * ways;
    Rng rng(ways);
    auto slotOf = [](Cache::Slot s) {
        return s ? static_cast<int>(s.index()) : -1;
    };
    auto expectVictim = [](const Cache::Victim &got,
                           const Cache::Victim &want) {
        EXPECT_EQ(got.valid, want.valid);
        EXPECT_EQ(got.dirty, want.dirty);
        EXPECT_EQ(got.line, want.line);
        EXPECT_EQ(got.meta, want.meta);
    };
    std::uint64_t hits = 0, misses = 0, evictions = 0;
    for (int step = 0; step < 50000; ++step) {
        const LineAddr line = rng.nextBelow(universe);
        const int held = ref.find(line);
        ASSERT_EQ(slotOf(cache.contains(line)), held) << "step " << step;
        switch (rng.nextBelow(5)) {
        case 0: {
            const bool isWrite = rng.nextBool(0.3);
            const int slot = ref.lookup(line, isWrite);
            ASSERT_EQ(slotOf(cache.lookup(line, isWrite)), slot);
            ++(slot >= 0 ? hits : misses);
            break;
        }
        case 1:
        case 2:
            if (held < 0) {
                const bool dirty = rng.nextBool(0.3);
                const std::uint64_t meta = rng.next();
                const Cache::Placement got = cache.insert(line, dirty, meta);
                const auto [slot, victim] = ref.insert(line, dirty, meta);
                ASSERT_EQ(slotOf(got.slot), slot) << "step " << step;
                expectVictim(got.victim, victim);
                evictions += victim.valid;
            }
            break;
        case 3:
            expectVictim(cache.invalidate(line), ref.invalidate(line));
            break;
        default:
            if (held >= 0) {
                const Cache::Slot s(static_cast<std::uint32_t>(held));
                ASSERT_EQ(cache.meta(s), ref.meta(held));
                if (rng.nextBool(0.5)) {
                    cache.setDirty(s);
                    ref.setDirty(held);
                } else {
                    const std::uint64_t meta = rng.next();
                    cache.setMeta(s, meta);
                    ref.setMeta(held, meta);
                }
            }
            break;
        }
    }
    EXPECT_EQ(cache.hits(), hits);
    EXPECT_EQ(cache.misses(), misses);
    EXPECT_EQ(cache.stats().value("evictions"), evictions);
    EXPECT_GT(evictions, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheReferenceTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

//
// Hierarchy tests with a recording backend.
//

class RecordingBackend : public MemBackend
{
  public:
    void
    fetchLine(LineAddr line, const MappingInfo &, MissDoneFn done) override
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
    EventQueue eq;
    CacheHierarchy h(eq, tinyHierarchy(), backend);
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
    EventQueue eq;
    CacheHierarchy h(eq, tinyHierarchy(), backend);
    h.access(0, 0x1000, false, MappingInfo{}, nullptr);
    backend.completeAll();
    // Core 1 misses its private levels but hits the shared L3.
    auto r = h.access(1, 0x1000, false, MappingInfo{}, nullptr);
    EXPECT_EQ(r.level, CacheHierarchy::Level::L3);
}

TEST(Hierarchy, MshrMergesConcurrentMisses)
{
    RecordingBackend backend;
    EventQueue eq;
    CacheHierarchy h(eq, tinyHierarchy(), backend);
    int completions = 0;
    auto cb = [&completions](Cycle) { ++completions; };
    h.access(0, 0x2000, false, MappingInfo{}, cb);
    h.access(1, 0x2000, false, MappingInfo{}, cb);
    EXPECT_EQ(backend.fetches.size(), 1u); // merged
    backend.completeAll();
    EXPECT_EQ(completions, 2); // both waiters complete
}

TEST(Hierarchy, MshrTableGrowsAndFillsOutOfOrder)
{
    // 2,000 outstanding misses, far past the MSHR table's initial
    // size, each with a second waiter from the other core, complete in
    // a shuffled order; the first callback of each line starts a new
    // miss while the table is mid-fill. Every line is fetched once and
    // every waiter completes once.
    RecordingBackend backend;
    EventQueue eq;
    CacheHierarchy h(eq, tinyHierarchy(2), backend);
    constexpr int kLines = 2000;
    std::vector<int> completions(kLines, 0);
    for (int i = 0; i < kLines; ++i) {
        const Addr addr = static_cast<Addr>(i) * kLineBytes;
        auto cb = [&h, &completions, i](Cycle) {
            if (++completions[i] == 1) {
                h.access(1, static_cast<Addr>(kLines + i) * kLineBytes,
                         false, MappingInfo{}, nullptr);
            }
        };
        h.access(0, addr, false, MappingInfo{}, cb);
        h.access(1, addr, true, MappingInfo{}, cb);
    }
    EXPECT_EQ(backend.fetches.size(), static_cast<std::size_t>(kLines));
    EXPECT_EQ(h.stats().value("mshrMerges"),
              static_cast<std::uint64_t>(kLines));

    auto pending = std::move(backend.pending);
    backend.pending.clear();
    Rng rng(5);
    for (std::size_t i = pending.size(); i > 1; --i)
        std::swap(pending[i - 1], pending[rng.nextBelow(i)]);
    for (auto &[line, done] : pending)
        done(100);
    for (int c : completions)
        EXPECT_EQ(c, 2);
    EXPECT_EQ(backend.fetches.size(), static_cast<std::size_t>(2 * kLines));
    backend.completeAll();
    EXPECT_TRUE(backend.pending.empty());
}

TEST(Hierarchy, DirtyLineEventuallyWrittenBack)
{
    RecordingBackend backend;
    EventQueue eq;
    CacheHierarchy h(eq, tinyHierarchy(1), backend);
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
    EventQueue eq;
    CacheHierarchy h(eq, p, backend);
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
    EventQueue eq;
    CacheHierarchy h(eq, tinyHierarchy(1), backend);
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
    EventQueue eq;
    CacheHierarchy h(eq, tinyHierarchy(1), backend);
    auto r = h.fetch(0, 0x4000, MappingInfo{}, nullptr);
    EXPECT_EQ(r.level, CacheHierarchy::Level::Mem);
    backend.completeAll();
    r = h.fetch(0, 0x4000, MappingInfo{}, nullptr);
    EXPECT_EQ(r.level, CacheHierarchy::Level::L1);
    EXPECT_TRUE(h.l1i(0).contains(lineOf(0x4000)));
    EXPECT_FALSE(h.l1d(0).contains(lineOf(0x4000)));
}

//
// Pinned hierarchy behaviour under a randomized multi-core stream.
//

/** FNV-1a step over the eight bytes of @p v, low byte first. */
std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Completes each fetch after a seeded random delay of at least
 *  @p minDelay cycles on an event queue and records fetch and
 *  writeback order. */
class DelayedBackend : public MemBackend
{
  public:
    explicit DelayedBackend(EventQueue &eq, Cycle minDelay = 1)
        : eq_(eq), minDelay_(minDelay), rng_(77)
    {
    }

    void
    fetchLine(LineAddr line, const MappingInfo &, MissDoneFn done) override
    {
        fetches.push_back(line);
        eq_.schedule(eq_.now() + minDelay_ + rng_.nextBelow(300),
                     std::move(done));
    }

    void
    writebackLine(LineAddr line) override
    {
        writebacks.push_back(line);
    }

    std::vector<LineAddr> fetches;
    std::vector<LineAddr> writebacks;

  private:
    EventQueue &eq_;
    Cycle minDelay_;
    Rng rng_;
};

TEST(Hierarchy, AvgFetchLatencyTimesEachMissFromItsFirstIssue)
{
    // Eight misses in flight on core 0; each fill's callback starts
    // the next miss until 32 have issued, so MSHR entries are freed
    // and reused while others are outstanding. Core 1 loads each line
    // five cycles after core 0, before any fill can land, and merges
    // into its MSHR: a miss is timed once, from its first issue.
    EventQueue eq;
    DelayedBackend backend(eq, 20);
    CacheHierarchy h(eq, tinyHierarchy(2), backend);
    constexpr int kInFlight = 8;
    constexpr int kTotal = 32;
    std::vector<Cycle> issued(kTotal, 0), filled(kTotal, 0);
    std::vector<int> calls(kTotal, 0);
    int started = 0;
    int merged = 0;
    std::function<void()> startOne = [&] {
        const int id = started++;
        issued[id] = eq.now();
        const Addr addr = (0x1000 + static_cast<Addr>(id) * 67) *
                          kLineBytes;
        const auto r =
            h.access(0, addr, false, MappingInfo{}, [&, id](Cycle when) {
                ++calls[id];
                filled[id] = when;
                if (started < kTotal)
                    startOne();
            });
        EXPECT_EQ(r.level, CacheHierarchy::Level::Mem) << "miss " << id;
        eq.schedule(eq.now() + 5, [&h, &merged, addr](Cycle) {
            const auto r1 = h.access(1, addr, false, MappingInfo{}, nullptr);
            merged += r1.level == CacheHierarchy::Level::Mem;
        });
    };
    for (int i = 0; i < kInFlight; ++i)
        startOne();
    eq.run();

    ASSERT_EQ(started, kTotal);
    EXPECT_EQ(backend.fetches.size(), static_cast<std::size_t>(kTotal));
    EXPECT_EQ(merged, kTotal);
    EXPECT_EQ(h.stats().value("mshrMerges"),
              static_cast<std::uint64_t>(kTotal));
    std::uint64_t latency = 0;
    for (int id = 0; id < kTotal; ++id) {
        EXPECT_EQ(calls[id], 1) << "miss " << id;
        latency += filled[id] - issued[id];
    }
    EXPECT_DOUBLE_EQ(h.avgFetchLatency(),
                     static_cast<double>(latency) / kTotal);
}

TEST(Hierarchy, RandomStreamIsPinnedAndInclusive)
{
    // Four cores over a 1 KB L1 / 4 KB L2 / 16 KB L3 hierarchy and a
    // 768-line universe, so every level evicts. Fills land after a
    // random delay, so concurrent misses merge in the MSHRs; every
    // 40th step a core loads and fetches one line in the same cycle,
    // which parks a load and a fetch of one core on one MSHR.
    EventQueue eq;
    DelayedBackend backend(eq);
    CacheHierarchy h(eq, tinyHierarchy(4), backend);
    constexpr std::uint64_t kUniverse = 768;
    Rng rng(31);
    std::uint64_t levels = 0xcbf29ce484222325ull;
    Cycle at = 0;
    for (int i = 0; i < 20000; ++i) {
        at += rng.nextBelow(4);
        const CoreId core = static_cast<CoreId>(rng.nextBelow(4));
        const Addr addr = rng.nextBelow(kUniverse) * kLineBytes;
        const std::uint64_t kind = i % 40 == 0 ? 3 : rng.nextBelow(3);
        eq.schedule(at, [&h, &levels, core, addr, kind](Cycle) {
            auto record = [&levels](CacheHierarchy::AccessResult r) {
                levels = fnv1a(levels, static_cast<std::uint64_t>(r.level));
            };
            if (kind == 0 || kind == 1 || kind == 3)
                record(h.access(core, addr, kind == 1, MappingInfo{},
                                nullptr));
            if (kind == 2 || kind == 3)
                record(h.fetch(core, addr, MappingInfo{}, nullptr));
        });
    }
    eq.run();
    EXPECT_GT(h.stats().value("mshrMerges"), 0u);

    std::uint64_t d = 0xcbf29ce484222325ull;
    for (LineAddr l : backend.fetches)
        d = fnv1a(d, l);
    d = fnv1a(d, ~0ull);
    for (LineAddr l : backend.writebacks)
        d = fnv1a(d, l);
    auto digestCache = [&d](const Cache &c) {
        d = fnv1a(d, c.hits());
        d = fnv1a(d, c.misses());
        d = fnv1a(d, c.stats().value("evictions"));
        d = fnv1a(d, c.stats().value("dirtyEvictions"));
    };
    for (CoreId c = 0; c < 4; ++c) {
        digestCache(h.l1d(c));
        digestCache(h.l1i(c));
        digestCache(h.l2(c));
    }
    digestCache(h.l3());
    EXPECT_EQ(d, 0xe4260e1e86a29bfdull);
    EXPECT_EQ(levels, 0x185a38c017a23d47ull);

    // Inclusion: an L1 line is in its core's L2, an L2 line in L3.
    for (LineAddr line = 0; line < kUniverse; ++line) {
        for (CoreId c = 0; c < 4; ++c) {
            if (h.l1d(c).contains(line) || h.l1i(c).contains(line)) {
                EXPECT_TRUE(h.l2(c).contains(line)) << line;
            }
            if (h.l2(c).contains(line)) {
                EXPECT_TRUE(h.l3().contains(line)) << line;
            }
        }
    }
}

} // namespace
} // namespace banshee
