/**
 * @file
 * Unit tests for the DRAM timing model: zero-load latency, row-buffer
 * behavior, bandwidth limits, write drain, bulk chopping, and traffic
 * accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "dram/dram_model.hh"

namespace banshee {
namespace {

class DramTest : public ::testing::Test
{
  protected:
    EventQueue eq;
};

Cycle
readOnce(EventQueue &eq, DramModel &dram, Addr addr, std::uint32_t bytes = 64)
{
    Cycle done = 0;
    DramRequest req;
    req.addr = addr;
    req.bytes = bytes;
    req.done = [&done](Cycle when) { done = when; };
    dram.access(0, std::move(req));
    eq.run();
    return done;
}

TEST_F(DramTest, ZeroLoadRowMissLatency)
{
    DramModel dram(eq, DramTiming{}, 1);
    const DramTiming t;
    // Cold bank: tRCD + tCAS + transfer(2 DRAM cycles for 64 B).
    const Cycle expect = t.toCore(t.tRCD + t.tCAS + 2);
    EXPECT_EQ(readOnce(eq, dram, 0), expect);
}

TEST_F(DramTest, RowHitFasterThanConflict)
{
    DramModel dram(eq, DramTiming{}, 1);
    const Cycle first = readOnce(eq, dram, 0);
    // Same row: hit — only tCAS + transfer.
    const Cycle hit = readOnce(eq, dram, 64) - first;
    // Same bank (stride = rowBytes * numBanks), different row: conflict.
    const DramTiming t;
    const Cycle confl =
        readOnce(eq, dram, static_cast<Addr>(t.rowBytes) * t.numBanks) -
        (first + hit);
    EXPECT_LT(hit, confl);
    EXPECT_EQ(hit, t.toCore(t.tCAS + 2));
}

TEST_F(DramTest, ConflictHonorsTras)
{
    DramModel dram(eq, DramTiming{}, 1);
    const DramTiming t;
    const Cycle first = readOnce(eq, dram, 0);
    // Immediately conflict on the same bank: precharge cannot start
    // before tRAS expires from the first activate.
    const Cycle second =
        readOnce(eq, dram, static_cast<Addr>(t.rowBytes) * t.numBanks);
    const Cycle minSecond =
        t.toCore(t.tRAS + t.tRP + t.tRCD + t.tCAS + 2);
    EXPECT_GE(second, minSecond);
    (void)first;
}

TEST_F(DramTest, StreamIsBusLimited)
{
    // Sequential 64 B reads in one row: throughput must approach the
    // bus limit of 32 B per DRAM cycle.
    DramModel dram(eq, DramTiming{}, 1);
    const int n = 512;
    Cycle last = 0;
    for (int i = 0; i < n; ++i) {
        DramRequest req;
        req.addr = static_cast<Addr>(i) * 64;
        req.bytes = 64;
        req.done = [&last](Cycle when) { last = std::max(last, when); };
        dram.access(0, std::move(req));
    }
    eq.run();
    const DramTiming t;
    const double busCyclesNeeded = n * 64.0 / t.busBytesPerCycle;
    const double elapsed = static_cast<double>(last) / t.toCore(1);
    EXPECT_LT(elapsed, busCyclesNeeded * 1.3);
    EXPECT_GE(elapsed, busCyclesNeeded);
}

TEST_F(DramTest, RandomBanksPipelineAcrossBanks)
{
    // Random rows across banks: per-bank preparation overlaps, so
    // throughput stays far above the serialized per-request latency.
    DramModel dram(eq, DramTiming{}, 1);
    const DramTiming t;
    const int n = 256;
    Cycle last = 0;
    for (int i = 0; i < n; ++i) {
        DramRequest req;
        // Different row every time, cycling banks.
        req.addr = static_cast<Addr>(i) * t.rowBytes;
        req.bytes = 64;
        req.done = [&last](Cycle when) { last = std::max(last, when); };
        dram.access(0, std::move(req));
    }
    eq.run();
    const Cycle serialized = n * t.toCore(t.tRP + t.tRCD + t.tCAS + 2);
    EXPECT_LT(last, serialized / 2);
}

TEST_F(DramTest, MoreChannelsMoreBandwidth)
{
    auto runStream = [this](std::uint32_t channels) {
        eq.reset();
        DramModel dram(eq, DramTiming{}, channels);
        Cycle last = 0;
        for (int i = 0; i < 512; ++i) {
            DramRequest req;
            req.addr = static_cast<Addr>(i / channels) * 64;
            req.bytes = 64;
            req.done = [&last](Cycle when) {
                last = std::max(last, when);
            };
            dram.access(i % channels, std::move(req));
        }
        eq.run();
        return last;
    };
    const Cycle one = runStream(1);
    const Cycle four = runStream(4);
    EXPECT_NEAR(static_cast<double>(one) / four, 4.0, 0.8);
}

TEST_F(DramTest, WritesAreDrainedEventually)
{
    DramModel dram(eq, DramTiming{}, 1);
    int completed = 0;
    for (int i = 0; i < 10; ++i) {
        DramRequest req;
        req.addr = static_cast<Addr>(i) * 64;
        req.bytes = 64;
        req.isWrite = true;
        req.done = [&completed](Cycle) { ++completed; };
        dram.access(0, std::move(req));
    }
    eq.run();
    EXPECT_EQ(completed, 10);
}

TEST_F(DramTest, ReadsPrioritizedOverWritesUntilHighWatermark)
{
    DramModel dram(eq, DramTiming{}, 1);
    // Enqueue a modest number of writes, then a read: the read should
    // complete before most writes (write queue below drain threshold).
    Cycle readDone = 0;
    std::vector<Cycle> writeDone;
    for (int i = 0; i < 8; ++i) {
        DramRequest req;
        req.addr = static_cast<Addr>(i + 1) * 8192 * 8;
        req.bytes = 64;
        req.isWrite = true;
        req.done = [&writeDone](Cycle when) { writeDone.push_back(when); };
        dram.access(0, std::move(req));
    }
    DramRequest rd;
    rd.addr = 0;
    rd.bytes = 64;
    rd.done = [&readDone](Cycle when) { readDone = when; };
    dram.access(0, std::move(rd));
    eq.run();
    int after = 0;
    for (Cycle w : writeDone)
        if (w > readDone)
            ++after;
    EXPECT_GE(after, 4); // most writes finish after the read
}

TEST_F(DramTest, BulkAccessMovesAllBytesInChunks)
{
    DramModel dram(eq, DramTiming{}, 1);
    dram.bulkAccess(0, 0, 4096, false, TrafficCat::Fill);
    eq.run();
    EXPECT_EQ(dram.traffic().bytes(TrafficCat::Fill), 4096u);
    // A page moves as 16 posted 256 B chunk requests.
    EXPECT_EQ(dram.stats().value("ch0.requests"), 16u);
}

TEST_F(DramTest, TagBytesSplitAccounting)
{
    DramModel dram(eq, DramTiming{}, 1);
    DramRequest req;
    req.addr = 0;
    req.bytes = 96;
    req.tagBytes = 32;
    req.cat = TrafficCat::HitData;
    dram.access(0, std::move(req));
    eq.run();
    EXPECT_EQ(dram.traffic().bytes(TrafficCat::HitData), 64u);
    EXPECT_EQ(dram.traffic().bytes(TrafficCat::Tag), 32u);
    EXPECT_EQ(dram.traffic().totalBytes(), 96u);
}

TEST_F(DramTest, LatencyScaleSpeedsUpAccess)
{
    DramTiming fast;
    fast.latencyScale = 0.5;
    DramModel slow(eq, DramTiming{}, 1);
    const Cycle slowLat = readOnce(eq, slow, 0);
    eq.reset();
    DramModel quick(eq, fast, 1);
    const Cycle fastLat = readOnce(eq, quick, 0);
    EXPECT_LT(fastLat, slowLat);
}

TEST_F(DramTest, UtilizationTracksBusyFraction)
{
    DramModel dram(eq, DramTiming{}, 1);
    Cycle last = 0;
    for (int i = 0; i < 64; ++i) {
        DramRequest req;
        req.addr = static_cast<Addr>(i) * 64;
        req.bytes = 64;
        req.done = [&last](Cycle when) { last = std::max(last, when); };
        dram.access(0, std::move(req));
    }
    eq.run();
    const double util = dram.busUtilization(last);
    EXPECT_GT(util, 0.5);
    EXPECT_LE(util, 1.0);
}

TEST_F(DramTest, ZeroLoadLatencyHelperMatchesModel)
{
    DramModel dram(eq, DramTiming{}, 1);
    // Warm the row, then measure a hit.
    readOnce(eq, dram, 0);
    const Cycle before = eq.now();
    const Cycle hit = readOnce(eq, dram, 64) - before;
    EXPECT_EQ(hit, dram.zeroLoadLatency(64));
}

struct BurstParam
{
    std::uint32_t bytes;
};

class DramBurstTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(DramBurstTest, TransferTimeScalesWithSize)
{
    EventQueue eq;
    DramModel dram(eq, DramTiming{}, 1);
    const DramTiming t;
    // Warm the row so only tCAS + transfer remain.
    Cycle done = 0;
    DramRequest warm;
    warm.addr = 0;
    warm.bytes = 32;
    warm.done = [&done](Cycle w) { done = w; };
    dram.access(0, std::move(warm));
    eq.run();
    const Cycle start = done;
    DramRequest req;
    req.addr = 64;
    req.bytes = GetParam();
    req.done = [&done](Cycle w) { done = w; };
    dram.access(0, std::move(req));
    eq.run();
    EXPECT_EQ(done - start,
              t.toCore(t.tCAS + GetParam() / t.busBytesPerCycle));
}

INSTANTIATE_TEST_SUITE_P(Sizes, DramBurstTest,
                         ::testing::Values(32u, 64u, 96u, 128u, 256u));

// ------------------------------------------------------------------
// Scheduler config and its QoS knobs (dram/sched_config.hh)
// ------------------------------------------------------------------

/** The QoS preset's selector (credits on, 64-entry window) with both
 *  age caps off; each test turns on the knob it isolates. */
DramSchedConfig
qosSched()
{
    DramSchedConfig qc;
    qc.qos = true;
    qc.window = 64;
    return qc;
}

/** Enqueue a read/write and collect its completion cycle. */
void
enqueue(DramModel &dram, Addr addr, bool isWrite, std::vector<Cycle> &done,
        TenantId tenant = kNoTenant)
{
    DramRequest req;
    req.addr = addr;
    req.bytes = 64;
    req.isWrite = isWrite;
    req.tenant = tenant;
    const std::size_t slot = done.size();
    done.push_back(0);
    req.done = [&done, slot](Cycle when) { done[slot] = when; };
    dram.access(0, std::move(req));
}

TEST_F(DramTest, StockSchedulerIsQosSelectorWithNothingBinding)
{
    // One selector serves both configs: with credits on but never
    // binding (shares set, an epoch budget no tenant can spend), age
    // caps off, window 16 and 48/16 watermarks, every completion
    // cycle matches a default-configured channel's.
    const DramTiming t;
    auto runMix = [&](bool qosOn) {
        eq.reset();
        DramModel dram(eq, DramTiming{}, 1);
        if (qosOn) {
            DramSchedConfig qc;
            qc.qos = true;
            qc.epochCycles = 64;
            qc.bytesPerEpoch = 1ull << 40;
            dram.setSchedConfig(qc);
            std::array<double, kMaxTenants> shares{};
            shares[0] = 0.5;
            shares[1] = 0.5;
            dram.setQosShares(shares);
        }
        std::vector<Cycle> done;
        for (int i = 0; i < 96; ++i) {
            const Addr addr =
                static_cast<Addr>(i % 7) * t.rowBytes + (i % 13) * 64;
            enqueue(dram, addr, i % 3 == 0, done,
                    static_cast<TenantId>(i % 2));
        }
        eq.run();
        if (qosOn) {
            // Credits were live: every issue was charged as a grant.
            EXPECT_EQ(dram.traffic().qosGrants(0) +
                          dram.traffic().qosGrants(1),
                      96u);
            EXPECT_EQ(dram.traffic().qosDefers(0) +
                          dram.traffic().qosDefers(1),
                      0u);
        }
        return done;
    };
    EXPECT_EQ(runMix(false), runMix(true));
}

TEST_F(DramTest, QosWriteAgeBoundsParkedWrite)
{
    // A lone write parked behind a steady read stream: stock FR-FCFS
    // drains it only once the read queue empties; the QoS write-age
    // cap forces the drain once the write is over age.
    const DramTiming t;
    auto runParked = [&](bool qosOn) {
        eq.reset();
        DramModel dram(eq, DramTiming{}, 1);
        if (qosOn) {
            DramSchedConfig qc = qosSched();
            qc.writeAgeCap = 256;
            dram.setSchedConfig(qc);
        }
        std::vector<Cycle> writeDone, readDone;
        enqueue(dram, t.rowBytes, true, writeDone); // bank 1
        for (int i = 0; i < 200; ++i)
            enqueue(dram, static_cast<Addr>(i % 32) * 64, false, readDone);
        eq.run();
        const Cycle lastRead =
            *std::max_element(readDone.begin(), readDone.end());
        return std::make_pair(writeDone[0], lastRead);
    };
    const auto [stockWrite, stockLastRead] = runParked(false);
    const auto [qosWrite, qosLastRead] = runParked(true);
    EXPECT_GT(stockWrite, stockLastRead); // parked until reads drain
    EXPECT_LT(qosWrite, qosLastRead);     // age bound frees it
    EXPECT_LT(qosWrite, stockWrite);
}

TEST_F(DramTest, QosAgedReadBeatsRowHitStream)
{
    // A row-conflict read stuck behind a row-hit stream on the same
    // bank: stock FR-FCFS serves every hit first; the read-age bound
    // pops the aged front past them.
    const DramTiming t;
    const Addr rowB = static_cast<Addr>(t.rowBytes) * t.numBanks;
    auto runStream = [&](bool qosOn) {
        eq.reset();
        DramModel dram(eq, DramTiming{}, 1);
        if (qosOn) {
            DramSchedConfig qc = qosSched();
            qc.readAgeCap = 256;
            dram.setSchedConfig(qc);
        }
        std::vector<Cycle> aDone, bDone;
        for (int i = 0; i < 4; ++i)
            enqueue(dram, static_cast<Addr>(i) * 64, false, aDone);
        enqueue(dram, rowB, false, bDone);
        for (int i = 4; i < 64; ++i)
            enqueue(dram, static_cast<Addr>(i % 32) * 64, false, aDone);
        eq.run();
        const Cycle lastA =
            *std::max_element(aDone.begin(), aDone.end());
        return std::make_pair(bDone[0], lastA);
    };
    const auto [stockB, stockLastA] = runStream(false);
    const auto [qosB, qosLastA] = runStream(true);
    EXPECT_GT(stockB, stockLastA); // starved behind every row hit
    EXPECT_LT(qosB, qosLastA);     // served once over age
    (void)qosLastA;
}

TEST_F(DramTest, QosCreditThrottleDefersFlooderUntilVictimDrains)
{
    // Tenant 1 floods 32 reads, tenant 0 enqueues 8 afterwards; with
    // 3:1 shares over a tiny epoch budget the flooder exhausts its
    // credit after 8 grants and the victim's whole batch overtakes
    // the remaining flood. Work conservation then lets the flooder
    // finish on its own.
    DramModel dram(eq, DramTiming{}, 1);
    DramSchedConfig qc = qosSched();
    qc.epochCycles = 1'000'000'000; // never refills during the test
    qc.bytesPerEpoch = 2048;        // flooder: 512 B = 8 reads
    dram.setSchedConfig(qc);
    std::array<double, kMaxTenants> shares{};
    shares[0] = 0.75;
    shares[1] = 0.25;
    dram.setQosShares(shares);

    std::vector<Cycle> flooderDone, victimDone;
    for (int i = 0; i < 32; ++i)
        enqueue(dram, static_cast<Addr>(i % 16) * 64, false, flooderDone,
                /*tenant=*/1);
    for (int i = 0; i < 8; ++i)
        enqueue(dram, static_cast<Addr>(16 + i) * 64, false, victimDone,
                /*tenant=*/0);
    eq.run();

    const Cycle victimLast =
        *std::max_element(victimDone.begin(), victimDone.end());
    const Cycle flooderLast =
        *std::max_element(flooderDone.begin(), flooderDone.end());
    EXPECT_LT(victimLast, flooderLast);
    // Every issued request is a grant; bypassing the flooder while
    // the victim drained recorded defers against the flooder only.
    EXPECT_EQ(dram.traffic().qosGrants(0), 8u);
    EXPECT_EQ(dram.traffic().qosGrants(1), 32u);
    EXPECT_GT(dram.traffic().qosDefers(1), 0u);
    EXPECT_EQ(dram.traffic().qosDefers(0), 0u);
}

TEST_F(DramTest, QosDrainWatermarkOverridesSplitTheDrain)
{
    // Hysteresis edges under the QoS preset's watermarks: 24 queued
    // writes hit the high watermark (24) immediately, the drain runs
    // down to the low watermark (8) — exactly 16 writes — and the
    // remaining 8 wait until the reads empty. Stock watermarks
    // (48/16) never drain before the reads finish.
    const DramTiming t;
    auto runBatch = [&](bool qosOn) {
        eq.reset();
        DramModel dram(eq, DramTiming{}, 1);
        if (qosOn) {
            DramSchedConfig qc = qosSched();
            qc.writeDrainHigh = 24;
            qc.writeDrainLow = 8;
            dram.setSchedConfig(qc);
        }
        std::vector<Cycle> writeDone, readDone;
        for (int i = 0; i < 24; ++i)
            enqueue(dram, t.rowBytes + static_cast<Addr>(i) * 64, true,
                    writeDone);
        for (int i = 0; i < 40; ++i)
            enqueue(dram, static_cast<Addr>(i % 32) * 64, false, readDone);
        eq.run();
        const Cycle lastRead =
            *std::max_element(readDone.begin(), readDone.end());
        int before = 0;
        for (Cycle w : writeDone)
            if (w < lastRead)
                ++before;
        return before;
    };
    EXPECT_EQ(runBatch(false), 0);
    EXPECT_EQ(runBatch(true), 24 - 8);
}

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

/**
 * Run one seeded read/write stream through a channel configured with
 * @p sc and digest every completion cycle (in push order) and each
 * tenant's QoS grants and defers. Requests cover all eight banks and
 * four rows per bank, come from two tenants, and arrive through the
 * event queue at random gaps short enough that both queues back up.
 */
std::uint64_t
pickOrderDigest(const DramSchedConfig &sc, bool shares)
{
    EventQueue eq;
    const DramTiming t;
    DramModel dram(eq, t, 1);
    dram.setSchedConfig(sc);
    if (shares) {
        std::array<double, kMaxTenants> s{};
        s[0] = 0.75;
        s[1] = 0.25;
        dram.setQosShares(s);
    }
    Rng rng(2024);
    std::vector<Cycle> done;
    done.reserve(2400);
    Cycle at = 0;
    for (int i = 0; i < 2400; ++i) {
        const std::uint64_t bank = rng.nextBelow(t.numBanks);
        const std::uint64_t row = rng.nextBelow(4) * t.numBanks + bank;
        const Addr addr = row * t.rowBytes + rng.nextBelow(128) * 64;
        const bool isWrite = rng.nextBool(0.35);
        const TenantId tenant = static_cast<TenantId>(rng.nextBelow(2));
        at += rng.nextBelow(14);
        eq.schedule(at, [&dram, &done, addr, isWrite, tenant](Cycle) {
            enqueue(dram, addr, isWrite, done, tenant);
        });
    }
    eq.run();
    EXPECT_EQ(done.size(), 2400u);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (Cycle c : done) {
        EXPECT_GT(c, 0u);
        h = fnv1a(h, c);
    }
    for (TenantId tn = 0; tn < 2; ++tn) {
        h = fnv1a(h, dram.traffic().qosGrants(tn));
        h = fnv1a(h, dram.traffic().qosDefers(tn));
    }
    return h;
}

TEST_F(DramTest, PickOrderIsPinned)
{
    // The exact completion cycle of every request under four selector
    // configs. Any change to the scheduler's pick order or timing
    // moves a digest; a host-speed change to the channel must not.
    const DramSchedConfig stock;
    DramSchedConfig tenantQos = qosSched(); // the tenant-qos preset
    tenantQos.readAgeCap = 4096;
    tenantQos.writeAgeCap = 16384;
    tenantQos.writeDrainHigh = 24;
    tenantQos.writeDrainLow = 8;
    DramSchedConfig narrow;
    narrow.window = 1;
    DramSchedConfig shortDrain;
    shortDrain.writeDrainHigh = 4;
    shortDrain.writeDrainLow = 2;

    EXPECT_EQ(pickOrderDigest(stock, false), 0xc169e86213b614a2ull);
    EXPECT_EQ(pickOrderDigest(tenantQos, true), 0x563f064f5e5bc375ull);
    EXPECT_EQ(pickOrderDigest(narrow, false), 0xaa42c2237b1170f3ull);
    EXPECT_EQ(pickOrderDigest(shortDrain, false), 0xf02cb7f0500c0159ull);
}

} // namespace
} // namespace banshee
