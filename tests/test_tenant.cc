/**
 * @file
 * Multi-tenant partitioning and QoS arbitration:
 *
 *  - TenantMap unit behavior: core handout (explicit counts and the
 *    equal split of the leftover), address-region ownership, weight
 *    normalization;
 *  - the Qos resize policy as a pure function: entitlement rebalance
 *    converges after a quota change, pressure lending never takes a
 *    donor below its entitlement floor (quota is a guarantee), and
 *    the power-cap composition sheds from the tenant furthest over
 *    quota;
 *  - end to end on the full machine: per-tenant statistics conserve
 *    the device totals, every scheme charges each demand access and
 *    each DRAM byte to a tenant, a cache-hostile streaming tenant cannot
 *    degrade a quota-protected resident tenant's miss rate beyond a
 *    small epsilon of its solo run (while the unpartitioned baseline
 *    degrades it badly), and the arbiter converges slice ownership
 *    to the configured weights after a quota change.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/units.hh"
#include "sim/system.hh"
#include "sim/system_config.hh"
#include "resize/resize_policy.hh"
#include "tenant/tenant_map.hh"
#include "workload/workloads.hh"

namespace banshee {
namespace {

// ------------------------------------------------------------------
// TenantMap
// ------------------------------------------------------------------

TEST(TenantMap, ExplicitCoreCountsAndEqualLeftoverSplit)
{
    // Tenant a pins 2 cores; b and c split the remaining 6 equally.
    TenantMap map({{"a", "mcf", 1.0, 2},
                   {"b", "omnetpp", 1.0, 0},
                   {"c", "milc", 1.0, 0}},
                  8);
    EXPECT_EQ(map.coreCount(0), 2u);
    EXPECT_EQ(map.coreCount(1), 3u);
    EXPECT_EQ(map.coreCount(2), 3u);

    // Contiguous handout, every core owned.
    for (CoreId c = 0; c < 8; ++c) {
        const TenantId t = map.tenantOfCore(c);
        ASSERT_NE(t, kNoTenant) << "core " << c;
        EXPECT_GE(c, map.firstCore(t));
        EXPECT_LT(c, map.firstCore(t) + map.coreCount(t));
    }
    EXPECT_EQ(map.tenantOfCore(99), kNoTenant);
}

TEST(TenantMap, AddressRegionsRecoverTheOwner)
{
    TenantMap map({{"a", "mcf", 1.0, 1}, {"b", "omnetpp", 1.0, 1}}, 2);
    map.addRegion(0x1000, 0x2000, 0);
    map.addRegion(0x8000, 0x9000, 1);

    EXPECT_EQ(map.tenantOfAddr(0x1000), 0);
    EXPECT_EQ(map.tenantOfAddr(0x1fff), 0);
    EXPECT_EQ(map.tenantOfAddr(0x8800), 1);
    EXPECT_EQ(map.tenantOfAddr(0x2000), kNoTenant); // limit is exclusive
    EXPECT_EQ(map.tenantOfAddr(0x7fff), kNoTenant);
}

TEST(TenantMap, WeightsNormalize)
{
    TenantMap map({{"a", "mcf", 3.0, 1}, {"b", "omnetpp", 1.0, 1}}, 2);
    EXPECT_DOUBLE_EQ(map.weight(0), 3.0);
    EXPECT_DOUBLE_EQ(map.share(0), 0.75);
    EXPECT_DOUBLE_EQ(map.share(1), 0.25);
    // The QoS scheduler's shares: one per tenant, zero past the last.
    const auto shares = map.weightShares();
    EXPECT_DOUBLE_EQ(shares[0], 0.75);
    EXPECT_DOUBLE_EQ(shares[1], 0.25);
    EXPECT_EQ(shares[2], 0.0);
}

// ------------------------------------------------------------------
// ResizePolicy, Kind::Qos (pure function)
// ------------------------------------------------------------------

ResizePolicyConfig
qosConfig()
{
    ResizePolicyConfig c;
    c.kind = ResizePolicyConfig::Kind::Qos;
    c.minEpochAccesses = 100;
    return c;
}

/** An epoch of @p weights.size() tenants owning @p owned slices. */
ResizeEpochStats
qosEpoch(const std::vector<double> &weights,
         const std::vector<std::uint32_t> &owned)
{
    ResizeEpochStats e;
    e.tenants.resize(weights.size());
    for (std::size_t t = 0; t < weights.size(); ++t) {
        e.tenants[t].weight = weights[t];
        e.tenants[t].ownedSlices = owned[t];
    }
    return e;
}

/** Apply transfer decisions until the arbiter goes quiet. */
int
settle(const ResizePolicy &qos, ResizeEpochStats &epoch,
       std::uint32_t activeSlices, std::uint32_t totalSlices)
{
    int steps = 0;
    for (; steps < 32; ++steps) {
        const ResizeDecision d =
            qos.decide(0, epoch, activeSlices, totalSlices);
        if (d.empty())
            break;
        EXPECT_FALSE(d.targetActive.has_value());
        --epoch.tenants[d.donor].ownedSlices;
        ++epoch.tenants[d.receiver].ownedSlices;
    }
    return steps;
}

std::vector<std::uint32_t>
ownedSlices(const ResizeEpochStats &epoch)
{
    std::vector<std::uint32_t> owned;
    for (const TenantEpochStats &t : epoch.tenants)
        owned.push_back(t.ownedSlices);
    return owned;
}

TEST(ResizePolicy, QosRebalanceConvergesAfterAQuotaChange)
{
    ResizePolicy qos(qosConfig());
    // Layout built for weights 3:1...
    ResizeEpochStats epoch = qosEpoch({3.0, 1.0}, {6, 2});

    // ...no drift while the weights still match.
    EXPECT_TRUE(qos.decide(0, epoch, 8, 8).empty());

    // Quota change to 1:1: one slice per epoch until 4/4.
    epoch.tenants[0].weight = 1.0;
    EXPECT_EQ(qos.decide(0, epoch, 8, 8).reason, ResizeReason::Rebalance);
    const int steps = settle(qos, epoch, 8, 8);
    EXPECT_EQ(steps, 2);
    EXPECT_EQ(ownedSlices(epoch), (std::vector<std::uint32_t>{4, 4}));
}

TEST(ResizePolicy, QosLendingStopsAtTheDonorsEntitlementFloor)
{
    ResizePolicy qos(qosConfig());
    ResizeEpochStats epoch = qosEpoch({1.0, 1.0}, {4, 4});

    // Tenant 1 thrashes, tenant 0 is demonstrably cold.
    epoch.tenants[0].accesses = 10000;
    epoch.tenants[0].misses = 10;
    epoch.tenants[1].accesses = 10000;
    epoch.tenants[1].misses = 6000;

    // One slice may be lent beyond entitlement...
    EXPECT_EQ(qos.decide(0, epoch, 8, 8).reason, ResizeReason::Lend);
    const int steps = settle(qos, epoch, 8, 8);
    EXPECT_EQ(steps, 1);
    EXPECT_EQ(ownedSlices(epoch), (std::vector<std::uint32_t>{3, 5}));

    // ...but the donor never drops further below its share, no
    // matter how hard the borrower keeps thrashing: quota holds.
    EXPECT_TRUE(qos.decide(0, epoch, 8, 8).empty());
}

TEST(ResizePolicy, QosPowerCapShedsFromTheTenantOverQuota)
{
    ResizePolicyConfig c = qosConfig();
    c.powerCapWatts = 1.0;
    ResizePolicy qos(c);

    // Tenant 0 sits two slices over its entitlement: it donates.
    ResizeEpochStats epoch = qosEpoch({1.0, 1.0}, {5, 3});
    epoch.avgPowerWatts = 1.5; // over budget
    epoch.bgRefreshWatts = 0.8;
    const ResizeDecision d = qos.decide(0, epoch, 8, 8);
    EXPECT_EQ(d.reason, ResizeReason::CapShed);
    EXPECT_EQ(d.targetActive, std::optional<std::uint32_t>(7));
    EXPECT_EQ(d.donor, 0);

    // Under budget with margin: the returning slice goes to the
    // larger deficit.
    epoch = qosEpoch({1.0, 1.0}, {2, 4});
    epoch.avgPowerWatts = 0.2;
    epoch.bgRefreshWatts = 0.8;
    const ResizeDecision g = qos.decide(0, epoch, 6, 8);
    EXPECT_EQ(g.reason, ResizeReason::CapGrow);
    EXPECT_EQ(g.targetActive, std::optional<std::uint32_t>(7));
    EXPECT_EQ(g.receiver, 0);

    // Without tenants the Qos kind does nothing, cap or not.
    epoch.tenants.clear();
    EXPECT_TRUE(qos.decide(0, epoch, 6, 8).empty());
}

// ------------------------------------------------------------------
// End to end on the full machine
// ------------------------------------------------------------------

/**
 * Tenant-scale test system: a small DRAM cache (8 slices of 512 KB)
 * over an LLC shrunk to 512 KB so the resident tenant's working set
 * (4 cores x 320 KB) lives in the DRAM cache, not the SRAM; the
 * churn tenant streams a footprint larger than the whole device.
 */
SystemConfig
tenantBase()
{
    SystemConfig c = SystemConfig::testDefault();
    c.numCores = 8;
    c.mem.inPkgCapacity = 4ull << 20;
    c.hierarchy.l3Size = 512 * 1024;
    c.autoWarmup = false;
    c.warmupInstrPerCore = 200'000;
    c.measureInstrPerCore = 200'000;
    return c;
}

std::vector<TenantConfig>
residentPlusChurn()
{
    return {{"resident", "qos_resident", 1.0, 4},
            {"churn", "qos_churn", 1.0, 4}};
}

TEST(TenantEndToEnd, PerTenantStatsConserveTheTotals)
{
    SystemConfig c = tenantBase();
    c.withTenants(residentPlusChurn());
    System sys(c);
    const RunResult r = sys.run();

    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_EQ(r.tenants[0].cores, 4u);
    EXPECT_EQ(r.tenants[1].cores, 4u);
    EXPECT_GT(r.tenants[0].instructions, 0u);
    EXPECT_GT(r.tenants[1].instructions, 0u);
    EXPECT_EQ(r.tenants[0].instructions + r.tenants[1].instructions,
              r.instructions);

    // Demand accesses and misses: tenant buckets plus the untagged
    // bucket partition the totals.
    std::uint64_t acc = 0;
    std::uint64_t mis = 0;
    for (const TenantRunStats &t : r.tenants) {
        acc += t.dramCacheAccesses;
        mis += t.dramCacheMisses;
    }
    MemSystem &mem = sys.memSystem();
    for (std::uint32_t mc = 0; mc < mem.numMcs(); ++mc) {
        acc += mem.scheme(mc).tenantAccesses(kNoTenant);
        mis += mem.scheme(mc).tenantMisses(kNoTenant);
    }
    EXPECT_EQ(acc, r.dramCacheAccesses);
    EXPECT_EQ(mis, r.dramCacheMisses);

    // Device bytes: the per-tenant split (plus untagged) conserves
    // the per-category totals.
    std::uint64_t inPkgTenantBytes =
        mem.inPkg()->traffic().tenantBytes(kNoTenant);
    std::uint64_t inPkgCatBytes = 0;
    for (const TenantRunStats &t : r.tenants)
        inPkgTenantBytes += t.inPkgBytes;
    for (std::size_t cat = 0; cat < kNumTrafficCats; ++cat)
        inPkgCatBytes += r.inPkgBytes[cat];
    EXPECT_EQ(inPkgTenantBytes, inPkgCatBytes);

    // An equal-weight partition of 8 slices: 4 each.
    EXPECT_EQ(r.tenants[0].slicesOwned, 4u);
    EXPECT_EQ(r.tenants[1].slicesOwned, 4u);
}

TEST(TenantEndToEnd, EverySchemeChargesItsTenants)
{
    for (const SchemeKind kind :
         {SchemeKind::NoCache, SchemeKind::CacheOnly, SchemeKind::Alloy,
          SchemeKind::Unison, SchemeKind::Tdc, SchemeKind::Hma,
          SchemeKind::Banshee}) {
        SCOPED_TRACE(schemeKindName(kind));
        SystemConfig c = SystemConfig::testDefault();
        c.numCores = 2;
        c.withScheme(kind);
        // Short HMA epochs, so its page migrations land in the run.
        c.hma.epoch = usToCycles(20.0);
        c.hma.baseCost = usToCycles(1.0);
        c.withTenants({{"a", "omnetpp", 1.0, 1}, {"b", "mcf", 1.0, 1}},
                      /*partition=*/false);
        System sys(c);
        const RunResult r = sys.run();

        ASSERT_EQ(r.tenants.size(), 2u);
        for (const TenantRunStats &t : r.tenants)
            EXPECT_GT(t.dramCacheAccesses, 0u) << t.name;
        MemSystem &mem = sys.memSystem();
        for (DramModel *dev : {mem.inPkg(), mem.offPkg()}) {
            if (dev == nullptr)
                continue;
            EXPECT_GT(dev->traffic().totalBytes(), 0u);
            EXPECT_EQ(dev->traffic().tenantBytes(kNoTenant), 0u);
            EXPECT_EQ(dev->power().energy().tenantDynamicPJ(kNoTenant), 0.0);
        }
    }
}

TEST(TenantEndToEnd, QuotaIsolatesTheResidentTenantFromChurn)
{
    // The resident tenant pays for 3/4 of the cache (6 of 8 slices),
    // comfortably above its working set; the churn tenant streams a
    // footprint that overflows the whole device.
    const std::vector<TenantConfig> mix = {
        {"resident", "qos_resident", 3.0, 4},
        {"churn", "qos_churn", 1.0, 4}};

    // Solo: the resident tenant's cores alone on the machine.
    SystemConfig solo = tenantBase();
    solo.numCores = 4;
    solo.workload = "qos_resident";
    const RunResult soloR = System(solo).run();

    // Partitioned: churn is confined to its own 2 slices.
    SystemConfig part = tenantBase();
    part.withTenants(mix);
    const RunResult partR = System(part).run();

    // Unpartitioned baseline: same co-location, shared slices.
    SystemConfig unpart = tenantBase();
    unpart.withTenants(mix, /*partition=*/false);
    const RunResult unpartR = System(unpart).run();

    ASSERT_EQ(partR.tenants.size(), 2u);
    ASSERT_EQ(unpartR.tenants.size(), 2u);
    const double soloMiss = soloR.missRate;
    const double partMiss = partR.tenants[0].missRate;
    const double unpartMiss = unpartR.tenants[0].missRate;

    // With quotas the resident tenant's miss rate stays within a
    // small epsilon of its solo run; without them the churn tenant
    // evicts it and the miss rate climbs several-fold.
    EXPECT_LE(partMiss, soloMiss + 0.03)
        << "solo " << soloMiss << " partitioned " << partMiss;
    EXPECT_GE(unpartMiss, partMiss + 0.02)
        << "partitioned " << partMiss << " unpartitioned " << unpartMiss;
    EXPECT_GE(unpartMiss, 3.0 * partMiss)
        << "partitioned " << partMiss << " unpartitioned " << unpartMiss;
}

TEST(TenantEndToEnd, ArbiterConvergesOwnershipAfterAQuotaChange)
{
    SystemConfig c = tenantBase();
    c.measureInstrPerCore = 300'000;
    c.withTenants(residentPlusChurn());
    c.withQosArbiter();
    // The layout was apportioned for an old 3:1 quota; the configured
    // weights are 1:1 — the arbiter must move ownership to 4/4, one
    // slice-drain at a time.
    c.resize.tenantWeights = {3.0, 1.0};

    System sys(c);
    const RunResult r = sys.run();

    // Two rebalance drains reach the 4/4 entitlement; the thrashing
    // churn tenant may then borrow its one-slice lending allowance
    // (and no more — the arbiter must not flap the loan back and
    // forth through repeated drains).
    EXPECT_GE(r.qosReassigns, 2u);
    EXPECT_LE(r.qosReassigns, 5u);
    EXPECT_GE(r.tenants[0].slicesOwned, 3u);
    EXPECT_LE(r.tenants[0].slicesOwned, 4u);
    EXPECT_EQ(r.tenants[0].slicesOwned + r.tenants[1].slicesOwned, 8u);
    sys.resizeController()->verifyResidencyConsistent();
}

} // namespace
} // namespace banshee
