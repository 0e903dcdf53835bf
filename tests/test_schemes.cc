/**
 * @file
 * Scheme-level tests of the baselines: the per-access traffic each
 * design pays (paper Table 1), footprint machinery, stochastic
 * fills, FIFO behavior, HMA epochs and the BATMAN controller.
 */

#include <gtest/gtest.h>

#include "schemes/alloy.hh"
#include "schemes/batman.hh"
#include "schemes/footprint.hh"
#include "schemes/hma.hh"
#include "schemes/simple.hh"
#include "schemes/tdc.hh"
#include "schemes/unison.hh"
#include "scheme_harness.hh"

namespace banshee {
namespace {

using testing::SchemeHarness;

//
// Footprint machinery.
//

TEST(Footprint, ResidencyGroupCounting)
{
    PageResidency r;
    EXPECT_EQ(r.readGroups(), 0u);
    r.touch(0, false);
    r.touch(1, false);
    EXPECT_EQ(r.readGroups(), 1u); // lines 0-3 = one group
    r.touch(4, true);
    EXPECT_EQ(r.readGroups(), 1u); // a written group is not read
    EXPECT_EQ(r.dirtyGroups(), 1u);
    r.touch(63, false);
    EXPECT_EQ(r.readGroups(), 2u);
    EXPECT_EQ(r.dirtyGroups(), 1u);
}

TEST(Footprint, PredictorConvergesAndClamps)
{
    FootprintPredictor p(8.0, 0.5);
    for (int i = 0; i < 64; ++i)
        p.observe(16);
    EXPECT_EQ(p.predictLines(), 64u); // full page
    for (int i = 0; i < 64; ++i)
        p.observe(0);
    EXPECT_EQ(p.predictLines(), 4u); // never below one group
}

//
// NoCache / CacheOnly.
//

TEST(SimpleSchemes, NoCacheIsPureOffPackage)
{
    SchemeHarness h;
    NoCacheScheme s(h.ctx);
    h.fetch(s, lineOf(0x1000));
    s.demandWriteback(lineOf(0x2000));
    h.drain();
    EXPECT_EQ(h.offBytes(TrafficCat::Demand), 64u);
    EXPECT_EQ(h.offBytes(TrafficCat::Writeback), 64u);
    EXPECT_EQ(h.inTotal(), 0u);
    EXPECT_EQ(s.missRate(), 1.0);
}

TEST(SimpleSchemes, CacheOnlyAlwaysHits)
{
    SchemeHarness h;
    CacheOnlyScheme s(h.ctx);
    for (int i = 0; i < 10; ++i)
        h.fetch(s, lineOf(0x1000 + i * 4096));
    EXPECT_EQ(s.missRate(), 0.0);
    EXPECT_EQ(h.inBytes(TrafficCat::HitData), 640u);
    EXPECT_EQ(h.offTotal(), 0u);
}

//
// Alloy.
//

AlloyConfig
alloyAlways()
{
    AlloyConfig c;
    c.fillProbability = 1.0;
    return c;
}

TEST(Alloy, MissProbesThenFetchesThenFills)
{
    SchemeHarness h;
    AlloyScheme s(h.ctx, alloyAlways());
    h.fetch(s, lineOf(0x4000));
    // Probe: 96 B (32 Tag + 64 MissData); fetch: 64 B off;
    // fill: 96 B (32 Tag + 64 Replacement).
    EXPECT_EQ(h.inBytes(TrafficCat::MissData), 64u);
    EXPECT_EQ(h.inBytes(TrafficCat::Tag), 64u);
    EXPECT_EQ(h.inBytes(TrafficCat::Replacement), 64u);
    EXPECT_EQ(h.offBytes(TrafficCat::Demand), 64u);
}

TEST(Alloy, HitReadsOneTad)
{
    SchemeHarness h;
    AlloyScheme s(h.ctx, alloyAlways());
    h.fetch(s, lineOf(0x4000));
    h.resetTraffic();
    h.fetch(s, lineOf(0x4000));
    EXPECT_EQ(s.hits(), 1u);
    EXPECT_EQ(h.inBytes(TrafficCat::HitData), 64u);
    EXPECT_EQ(h.inBytes(TrafficCat::Tag), 32u);
    EXPECT_EQ(h.offTotal(), 0u);
}

TEST(Alloy, MissLatencyIsSerializedProbePlusFetch)
{
    SchemeHarness h;
    AlloyScheme s(h.ctx, alloyAlways());
    const Cycle missLat = h.fetch(s, lineOf(0x8000)); // from cycle 0
    const Cycle start = h.eq.now();
    const Cycle hitLat = h.fetch(s, lineOf(0x8000)) - start;
    // The paper's ~2x column: the miss pays probe + off-package.
    EXPECT_GT(missLat, hitLat * 3 / 2);
}

TEST(Alloy, StochasticFillZeroNeverFills)
{
    SchemeHarness h;
    AlloyConfig cfg;
    cfg.fillProbability = 0.0;
    AlloyScheme s(h.ctx, cfg);
    h.fetch(s, lineOf(0x4000));
    h.fetch(s, lineOf(0x4000));
    EXPECT_EQ(s.hits(), 0u); // never cached
    EXPECT_EQ(s.stats().value("fills"), 0u);
    EXPECT_EQ(s.stats().value("fillsSkipped"), 2u);
}

TEST(Alloy, WritebackProbeHitWritesInPackage)
{
    SchemeHarness h;
    AlloyScheme s(h.ctx, alloyAlways());
    h.fetch(s, lineOf(0x4000)); // fill
    h.resetTraffic();
    s.demandWriteback(lineOf(0x4000));
    h.drain();
    // 32 B probe + 96 B data+tag write, nothing off-package.
    EXPECT_EQ(h.inBytes(TrafficCat::Tag), 64u);
    EXPECT_EQ(h.inBytes(TrafficCat::HitData), 64u);
    EXPECT_EQ(h.offTotal(), 0u);
}

TEST(Alloy, WritebackProbeMissGoesOffPackage)
{
    SchemeHarness h;
    AlloyScheme s(h.ctx, alloyAlways());
    s.demandWriteback(lineOf(0xF000));
    h.drain();
    EXPECT_EQ(h.inBytes(TrafficCat::Tag), 32u);
    EXPECT_EQ(h.offBytes(TrafficCat::Writeback), 64u);
}

TEST(Alloy, DirtyVictimWrittenBackOnConflict)
{
    SchemeHarness h(72 * 64); // 64 TADs: tiny direct-mapped cache
    AlloyScheme s(h.ctx, alloyAlways());
    const LineAddr a = lineOf(0x4000);
    h.fetch(s, a);
    s.demandWriteback(a); // a dirty in cache
    h.drain();
    // Find a conflicting line (same set).
    LineAddr b = a;
    for (LineAddr cand = a + 1; cand < a + 100000; ++cand) {
        AlloyScheme probe(h.ctx, alloyAlways());
        // Conflict iff fetching cand then a evicts... simpler: use the
        // public behavior: fetch cand and check a no longer hits.
        (void)probe;
        h.fetch(s, cand);
        h.resetTraffic();
        h.fetch(s, a);
        if (s.stats().value("victimWritebacks") > 0) {
            b = cand;
            break;
        }
    }
    EXPECT_NE(b, a); // some conflicting line evicted dirty a
}

//
// Unison.
//

TEST(Unison, HitPaysDataTagAndLruUpdate)
{
    SchemeHarness h;
    UnisonScheme s(h.ctx);
    h.fetch(s, lineOf(0x10000)); // miss + fill
    h.resetTraffic();
    h.fetch(s, lineOf(0x10000));
    EXPECT_EQ(s.hits(), 1u);
    // 96 B read (64 HitData + 32 Tag) + 32 B LRU write: >= 128 B.
    EXPECT_EQ(h.inBytes(TrafficCat::HitData), 64u);
    EXPECT_EQ(h.inBytes(TrafficCat::Tag), 64u);
    EXPECT_EQ(h.offTotal(), 0u);
}

TEST(Unison, MissReplacesOnEveryMissWithFootprint)
{
    SchemeHarness h;
    UnisonScheme s(h.ctx);
    h.fetch(s, lineOf(0x10000));
    // Speculative 96 B + demand 64 B off + footprint fill.
    EXPECT_EQ(h.inBytes(TrafficCat::MissData), 64u);
    EXPECT_EQ(h.offBytes(TrafficCat::Demand), 64u);
    EXPECT_GT(h.offBytes(TrafficCat::Fill), 0u);
    EXPECT_EQ(h.offBytes(TrafficCat::Fill),
              h.inBytes(TrafficCat::Replacement));
    EXPECT_EQ(s.stats().value("replacements"), 1u);
    // Second miss on another page: another replacement.
    h.fetch(s, lineOf(0x90000));
    EXPECT_EQ(s.stats().value("replacements"), 2u);
}

TEST(Unison, AllLinesOfResidentPageHit)
{
    SchemeHarness h;
    UnisonScheme s(h.ctx);
    h.fetch(s, lineOf(0x10000));
    for (std::uint32_t l = 1; l < kLinesPerPage; l += 7)
        h.fetch(s, lineOf(0x10000) + l);
    EXPECT_EQ(s.misses(), 1u); // perfect footprint: only first miss
}

TEST(Unison, DirtyFootprintWrittenBackOnEviction)
{
    SchemeHarness h(4096 * 4); // one 4-way set
    UnisonScheme s(h.ctx);
    const LineAddr a = lineOf(0x10000);
    h.fetch(s, a);
    s.demandWriteback(a);
    h.drain();
    // Fill the set with 4 more pages: a must be evicted dirty.
    h.resetTraffic();
    for (int i = 1; i <= 4; ++i)
        h.fetch(s, lineOf(0x10000 + i * 0x1000));
    EXPECT_GT(h.offBytes(TrafficCat::Writeback), 0u);
}

//
// TDC.
//

TEST(Tdc, HitMovesExactly64BNoTagTraffic)
{
    SchemeHarness h;
    TdcScheme s(h.ctx);
    h.fetch(s, lineOf(0x20000));
    h.resetTraffic();
    h.fetch(s, lineOf(0x20000));
    EXPECT_EQ(s.hits(), 1u);
    EXPECT_EQ(h.inBytes(TrafficCat::HitData), 64u);
    EXPECT_EQ(h.inBytes(TrafficCat::Tag), 0u); // tagless
    EXPECT_EQ(h.inTotal(), 64u);
}

TEST(Tdc, FifoEvictionOrder)
{
    SchemeHarness h(3 * 4096); // 3 frames
    TdcScheme s(h.ctx);
    h.fetch(s, lineOf(0x1000));
    h.fetch(s, lineOf(0x2000));
    h.fetch(s, lineOf(0x3000));
    EXPECT_EQ(s.residentPages(), 3u);
    // Touch page 1 (would refresh LRU, but FIFO ignores it).
    h.fetch(s, lineOf(0x1000));
    h.fetch(s, lineOf(0x4000)); // evicts 0x1000 (oldest)
    h.resetTraffic();
    h.fetch(s, lineOf(0x1000));
    EXPECT_EQ(h.offBytes(TrafficCat::Demand), 64u); // it was evicted
}

TEST(Tdc, WritebackToResidentPageStaysInPackage)
{
    SchemeHarness h;
    TdcScheme s(h.ctx);
    h.fetch(s, lineOf(0x30000));
    h.resetTraffic();
    s.demandWriteback(lineOf(0x30000));
    h.drain();
    EXPECT_EQ(h.inBytes(TrafficCat::HitData), 64u);
    EXPECT_EQ(h.offTotal(), 0u);
    EXPECT_EQ(h.inBytes(TrafficCat::Tag), 0u); // never probes
}

//
// HMA.
//

TEST(Hma, EpochMovesHotPagesIn)
{
    // NOTE: HMA re-arms its epoch event forever, so this test only
    // ever runs the queue up to explicit horizons (an unbounded
    // drain would never return).
    SchemeHarness h(4096 * 8);
    HmaConfig cfg;
    cfg.epoch = 10000;
    cfg.baseCost = 100;
    cfg.perPageCost = 10;
    HmaScheme s(h.ctx, cfg);
    // Touch two pages repeatedly; they miss before the first epoch.
    for (int i = 0; i < 20; ++i) {
        s.demandFetch(lineOf(0x1000), MappingInfo{}, nullptr);
        s.demandFetch(lineOf(0x2000), MappingInfo{}, nullptr);
    }
    EXPECT_EQ(s.hits(), 0u);
    // Let the first epoch fire.
    h.eq.run(15000);
    EXPECT_GE(s.epochsRun(), 1u);
    h.resetTraffic();
    s.demandFetch(lineOf(0x1000), MappingInfo{}, nullptr);
    h.eq.run(18000);
    EXPECT_EQ(h.inBytes(TrafficCat::HitData), 64u); // now resident
}

TEST(Hma, EpochStallsAllCores)
{
    SchemeHarness h(4096 * 8);
    Cycle stalled = 0;
    h.os->registerCore(OsServices::CoreHooks{
        [&stalled](Cycle c) { stalled += c; }, [] {}});
    HmaConfig cfg;
    cfg.epoch = 10000;
    cfg.baseCost = 100;
    cfg.perPageCost = 10;
    HmaScheme s(h.ctx, cfg);
    s.demandFetch(lineOf(0x1000), MappingInfo{}, nullptr);
    h.eq.run(15000);
    EXPECT_GT(stalled, 0u);
}

//
// BATMAN.
//

TEST(Batman, BypassFractionRisesUnderInPackageDominance)
{
    SchemeHarness h;
    BatmanParams params;
    params.epoch = 1000;
    BatmanController ctrl(h.eq, h.inPkg.get(), h.offPkg.get(), params);
    // All traffic in-package -> fraction must climb.
    for (int epoch = 0; epoch < 5; ++epoch) {
        for (int i = 0; i < 32; ++i) {
            DramRequest req;
            req.addr = static_cast<Addr>(i) * 64;
            req.bytes = 64;
            req.cat = TrafficCat::HitData;
            h.inPkg->access(0, std::move(req));
        }
        h.eq.run(h.eq.now() + 1000);
    }
    EXPECT_GT(ctrl.bypassFraction(), 0.1);

    // Now all off-package -> fraction must fall back toward zero.
    for (int epoch = 0; epoch < 8; ++epoch) {
        for (int i = 0; i < 32; ++i) {
            DramRequest req;
            req.addr = static_cast<Addr>(i) * 64;
            req.bytes = 64;
            h.offPkg->access(0, std::move(req));
        }
        h.eq.run(h.eq.now() + 1000);
    }
    EXPECT_LT(ctrl.bypassFraction(), 0.1);
}

TEST(Batman, BypassDecisionIsDeterministicPerPage)
{
    SchemeHarness h;
    BatmanParams params;
    params.epoch = 1000000; // never ticks in this test
    BatmanController ctrl(h.eq, h.inPkg.get(), h.offPkg.get(), params);
    EXPECT_FALSE(ctrl.shouldBypass(1));
    EXPECT_FALSE(ctrl.shouldBypass(2)); // fraction 0: nothing bypassed
}

} // namespace
} // namespace banshee
