/**
 * @file
 * Scheme-level tests of Banshee: exact demand-path traffic (the
 * Table 1 "64B / 0B" row), Algorithm 1 dynamics, tag-buffer-driven
 * lazy PTE coherence, the writeback probe filter, ablation policies
 * and large-page mode.
 */

#include <gtest/gtest.h>

#include "core/banshee.hh"
#include "scheme_harness.hh"

namespace banshee {
namespace {

using testing::SchemeHarness;

BansheeConfig
neverSample()
{
    BansheeConfig c;
    c.samplingCoeff = 0.0; // never sample: pure demand path
    return c;
}

BansheeConfig
aggressive()
{
    BansheeConfig c;
    c.policy = BansheeConfig::Policy::FbrNoSample;
    c.replaceThreshold = 0.0;
    return c;
}

TEST(BansheeScheme, MissMovesExactly64BytesOffPackage)
{
    SchemeHarness h;
    BansheeScheme s(h.ctx, neverSample());
    h.fetch(s, lineOf(0x100000));
    EXPECT_EQ(h.offBytes(TrafficCat::Demand), 64u);
    EXPECT_EQ(h.offTotal(), 64u);
    EXPECT_EQ(h.inTotal(), 0u); // Table 1: miss costs 0 B in-package
    EXPECT_EQ(s.misses(), 1u);
}

TEST(BansheeScheme, AggressivePolicyCachesOnSecondAccess)
{
    SchemeHarness h;
    BansheeScheme s(h.ctx, aggressive());
    const LineAddr line = lineOf(0x200000);
    h.fetch(s, line);      // candidate takeover, count = 1
    h.fetch(s, line);      // count = 2 > 0 + 0 -> replacement
    h.resetTraffic();
    h.fetch(s, line);
    EXPECT_EQ(s.hits(), 1u);
    // Hit: 64 B HitData plus the per-access metadata of the
    // no-sampling ablation (32 B read + 32 B write).
    EXPECT_EQ(h.inBytes(TrafficCat::HitData), 64u);
    EXPECT_EQ(h.inBytes(TrafficCat::Counter), 64u);
    EXPECT_EQ(h.offTotal(), 0u); // Table 1: hit costs 0 B off-package
}

TEST(BansheeScheme, ReplacementMovesOnePageEachWay)
{
    SchemeHarness h;
    BansheeScheme s(h.ctx, aggressive());
    const LineAddr line = lineOf(0x300000);
    h.fetch(s, line);
    h.resetTraffic();
    h.fetch(s, line); // triggers the replacement
    EXPECT_EQ(h.offBytes(TrafficCat::Fill), 4096u);
    EXPECT_EQ(h.inBytes(TrafficCat::Replacement), 4096u);
    EXPECT_EQ(h.offBytes(TrafficCat::Writeback), 0u); // victim empty
    EXPECT_EQ(s.pagesInserted(), 1u);
}

TEST(BansheeScheme, DirtyVictimDoublesReplacementTraffic)
{
    // One-set cache (4 KB per way) so a new page must evict.
    SchemeHarness h(4096 * 1);
    BansheeConfig cfg = aggressive();
    cfg.ways = 1;
    BansheeScheme s(h.ctx, cfg);
    const LineAddr a = lineOf(0x100000);
    const LineAddr b = lineOf(0x200000);
    h.fetch(s, a);
    h.fetch(s, a); // a cached
    s.demandWriteback(a);
    h.drain(); // a dirty
    h.fetch(s, b);
    h.resetTraffic();
    h.fetch(s, b); // b's counter beats a's? both low...
    h.fetch(s, b);
    h.fetch(s, b); // eventually b overtakes a
    // b must have replaced a, writing the dirty victim back.
    EXPECT_GT(h.offBytes(TrafficCat::Writeback), 0u);
    EXPECT_EQ(h.offBytes(TrafficCat::Writeback) % 4096, 0u);
    // One more PTE update publishes the swap to the PTEs.
    h.os->requestPteUpdate();
    h.drain();
    EXPECT_TRUE(h.pageTable.committedMapping(pageOfLine(b)).cached);
    EXPECT_FALSE(h.pageTable.committedMapping(pageOfLine(a)).cached);
}

TEST(BansheeScheme, StaleTlbMappingCorrectedByTagBuffer)
{
    SchemeHarness h;
    BansheeScheme s(h.ctx, aggressive());
    const LineAddr line = lineOf(0x400000);
    const PageNum page = pageOfLine(line);
    h.fetch(s, line);
    h.fetch(s, line); // cached now; PTE not yet updated
    EXPECT_FALSE(h.pageTable.committedMapping(page).cached); // PTE lags
    const auto tb = s.tagBuffer().lookup(page);
    ASSERT_TRUE(tb.has_value());
    EXPECT_TRUE(tb->cached);

    // A request carrying the stale "not cached" PTE bits must still be
    // served from the cache.
    MappingInfo stale;
    stale.valid = true;
    stale.cached = false;
    h.resetTraffic();
    h.fetch(s, line, stale);
    EXPECT_EQ(h.inBytes(TrafficCat::HitData), 64u);
    EXPECT_EQ(h.offBytes(TrafficCat::Demand), 0u);
}

TEST(BansheeScheme, PteUpdateCommitsAndClearsStaleness)
{
    SchemeHarness h;
    BansheeConfig cfg = aggressive();
    cfg.tagBuffer.entries = 16;
    cfg.tagBuffer.ways = 4;
    BansheeScheme s(h.ctx, cfg);
    // Cache enough pages to cross the 70 % remap threshold.
    const auto line = [](int i) { return lineOf(0x1000000 + i * kPageBytes); };
    for (int i = 0; i < 12; ++i) {
        h.fetch(s, line(i));
        h.fetch(s, line(i));
    }
    h.drain();
    EXPECT_GE(h.os->updateRuns(), 1u);
    // Replacements after the last flush leave fresh remaps behind;
    // one more explicit update must commit everything.
    h.os->requestPteUpdate();
    h.drain();
    EXPECT_EQ(s.tagBuffer().remapCount(), 0u);
    // No remap entry is left, so every resident page's PTE must name
    // its way.
    s.verifyResidencyConsistent();
    for (int i = 0; i < 12; ++i)
        EXPECT_TRUE(h.pageTable.committedMapping(pageOfLine(line(i))).cached);
}

TEST(BansheeScheme, ReplacementsBlockedWhileLocked)
{
    SchemeHarness h;
    BansheeScheme s(h.ctx, aggressive());
    const LineAddr line = lineOf(0x500000);
    h.fetch(s, line);
    // Start the OS PTE-update routine (20 us), then hammer before it
    // completes: no page may be inserted.
    h.os->requestPteUpdate();
    for (int i = 0; i < 2; ++i) {
        s.demandFetch(line, MappingInfo{}, nullptr);
        h.eq.run(h.eq.now() + 1000);
    }
    ASSERT_TRUE(h.os->updateInProgress());
    EXPECT_EQ(s.pagesInserted(), 0u);
    EXPECT_GT(s.replacementsBlocked(), 0u);
    h.drain();
    ASSERT_FALSE(h.os->updateInProgress());
    h.fetch(s, line);
    EXPECT_EQ(s.pagesInserted(), 1u);
}

TEST(BansheeScheme, WritebackProbeOnlyOnTagBufferMiss)
{
    SchemeHarness h;
    BansheeScheme s(h.ctx, neverSample());
    const LineAddr line = lineOf(0x600000);
    // Cold writeback: tag buffer misses -> one 32 B probe, then the
    // clean entry suppresses the probe for the next eviction.
    s.demandWriteback(line);
    h.drain();
    EXPECT_EQ(h.inBytes(TrafficCat::Tag), 32u);
    EXPECT_EQ(h.offBytes(TrafficCat::Writeback), 64u);
    h.resetTraffic();
    s.demandWriteback(line);
    h.drain();
    EXPECT_EQ(h.inBytes(TrafficCat::Tag), 0u);
    EXPECT_EQ(h.offBytes(TrafficCat::Writeback), 64u);
}

TEST(BansheeScheme, DemandFetchSeedsTagBufferForWritebacks)
{
    SchemeHarness h;
    BansheeScheme s(h.ctx, neverSample());
    const LineAddr line = lineOf(0x700000);
    h.fetch(s, line); // seeds a clean tag-buffer entry
    h.resetTraffic();
    s.demandWriteback(line);
    h.drain();
    EXPECT_EQ(h.inBytes(TrafficCat::Tag), 0u); // no probe needed
}

TEST(BansheeScheme, ResetStatsRestartsTagBufferLookupCounts)
{
    // The warmup boundary resets the scheme's counters, and the Tag
    // Buffer's must restart with them: afterwards hits + misses count
    // only the lookups made since, one per demand fetch and one per
    // writeback.
    SchemeHarness h;
    BansheeScheme s(h.ctx, aggressive());
    const auto line = [](int i) {
        return lineOf(0x800000 + static_cast<Addr>(i % 3) * kPageBytes);
    };
    const int warmupFetches = 7, fetches = 5, writebacks = 4;
    for (int i = 0; i < warmupFetches; ++i)
        h.fetch(s, line(i));
    s.resetStats();
    for (int i = 0; i < fetches; ++i)
        h.fetch(s, line(i));
    for (int i = 0; i < writebacks; ++i)
        s.demandWriteback(line(i + 1));
    h.drain();
    EXPECT_GT(s.tagBuffer().hits(), 0u);
    EXPECT_EQ(s.tagBuffer().hits() + s.tagBuffer().misses(),
              static_cast<std::uint64_t>(fetches + writebacks));
    EXPECT_EQ(s.accesses(), static_cast<std::uint64_t>(fetches));
}

TEST(BansheeScheme, StalePteWithoutTagBufferEntryAborts)
{
    // A default config checks lazy coherence on each Tag Buffer miss:
    // a PTE that claims a frame the tags do not hold, with no remap
    // entry to cover it, stops the run on both the fetch and the
    // writeback path.
    const LineAddr line = lineOf(0xB00000);
    EXPECT_DEATH(
        {
            SchemeHarness h;
            BansheeScheme s(h.ctx, BansheeConfig{});
            h.pageTable.commit(pageOfLine(line), PageMapping{true, 1});
            h.fetch(s, line);
        },
        "stale PTE without a tag-buffer entry");
    EXPECT_DEATH(
        {
            SchemeHarness h;
            BansheeScheme s(h.ctx, BansheeConfig{});
            h.pageTable.commit(pageOfLine(line), PageMapping{true, 1});
            s.demandWriteback(line);
        },
        "stale PTE without a tag-buffer entry");
}

TEST(BansheeScheme, DefaultThresholdMatchesPaperFormula)
{
    SchemeHarness h;
    BansheeConfig cfg;
    cfg.samplingCoeff = 0.1;
    BansheeScheme s(h.ctx, cfg);
    // 64 lines x 0.1 / 2 = 3.2 (paper Section 4.2.2).
    EXPECT_NEAR(s.threshold(), 3.2, 1e-9);
}

TEST(BansheeScheme, LargePageThresholdAndTraffic)
{
    SchemeHarness h(8ull << 20); // 8 MB -> one 4-way 2 MB set
    BansheeConfig cfg;
    cfg.pageBits = kLargePageBits;
    cfg.samplingCoeff = 0.001;
    cfg.policy = BansheeConfig::Policy::FbrNoSample;
    cfg.replaceThreshold = 0.0;
    BansheeScheme s(h.ctx, cfg);
    // Default threshold formula at 2 MB: 32768 x 0.001 / 2 = 16.4.
    BansheeScheme def(h.ctx, [] {
        BansheeConfig c;
        c.pageBits = kLargePageBits;
        c.samplingCoeff = 0.001;
        return c;
    }());
    EXPECT_NEAR(def.threshold(), 16.384, 1e-6);

    const LineAddr line = lineOf(0x10000000);
    h.fetch(s, line);
    h.resetTraffic();
    h.fetch(s, line); // replacement of a 2 MB page
    EXPECT_EQ(h.offBytes(TrafficCat::Fill), kLargePageBytes);
    EXPECT_EQ(h.inBytes(TrafficCat::Replacement), kLargePageBytes);
    // A different line of the same 2 MB page now hits.
    h.resetTraffic();
    h.fetch(s, line + (1 << 14) / kLineBytes);
    EXPECT_EQ(h.inBytes(TrafficCat::HitData), 64u);
}

TEST(BansheeScheme, AdaptiveSampleRateTracksMissRate)
{
    SchemeHarness h;
    BansheeConfig cfg;
    cfg.samplingCoeff = 0.1;
    BansheeScheme s(h.ctx, cfg);
    EXPECT_NEAR(s.currentSampleRate(), 0.1, 1e-9); // miss rate starts 1.0
    // Hammer one uncached page: miss rate stays 1, rate stays 0.1.
    for (int i = 0; i < 300; ++i)
        h.fetch(s, lineOf(0x800000 + i * kPageBytes * 16));
    EXPECT_NEAR(s.currentSampleRate(), 0.1, 0.02);
}

TEST(BansheeScheme, LruAblationReplacesOnEveryMissAndPaysMetadata)
{
    SchemeHarness h;
    BansheeConfig cfg;
    cfg.policy = BansheeConfig::Policy::LruEveryMiss;
    BansheeScheme s(h.ctx, cfg);
    const LineAddr line = lineOf(0x900000);
    h.fetch(s, line);
    EXPECT_EQ(s.pagesInserted(), 1u); // cached on first miss
    // Every access reads + writes the 32 B LRU metadata.
    EXPECT_EQ(h.inBytes(TrafficCat::Counter), 64u);
    h.resetTraffic();
    h.fetch(s, line);
    EXPECT_EQ(s.hits(), 1u);
    EXPECT_EQ(h.inBytes(TrafficCat::Counter), 64u);
}

TEST(BansheeScheme, CounterOverflowHalvesSet)
{
    SchemeHarness h;
    BansheeConfig cfg = aggressive();
    cfg.counterBits = 3; // max 7: quick to saturate
    BansheeScheme s(h.ctx, cfg);
    const LineAddr line = lineOf(0xA00000);
    for (int i = 0; i < 12; ++i)
        h.fetch(s, line);
    EXPECT_GT(s.stats().value("counterOverflows"), 0u);
}

} // namespace
} // namespace banshee
