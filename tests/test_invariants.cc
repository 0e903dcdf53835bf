/**
 * @file
 * Cross-subsystem invariant sweep: one parameterized test that runs
 * every scheme x resize x power-cap x tenant quick configuration, plus
 * one with every optional feature enabled together, and asserts the
 * accounting identities the per-subsystem suites only spot-check:
 *
 *  - energy identity: on every device, the per-category dynamic
 *    energies sum to the dynamic total, the per-tenant buckets sum
 *    to the same dynamic total, and dynamic + background + refresh +
 *    active-standby equals the device total that RunResult reports;
 *  - traffic conservation: per-category bytes and per-tenant bytes
 *    independently sum to the device's total bytes;
 *  - run accounting: per-tenant instructions partition the total,
 *    and miss counts never exceed access counts anywhere;
 *  - residency consistency: after every drain has completed, each
 *    scheme's directory, page table and frame state agree
 *    (verifyResidencyConsistent), and scheduled resizes actually
 *    reached their target.
 *
 * Catching a violation here means a subsystem leaked bytes, energy
 * or pages across one of the seams (scheme <-> DRAM model <-> power
 * model <-> resize <-> tenants) rather than inside any one of them.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "sim/system_config.hh"

namespace banshee {
namespace {

struct SweepCase
{
    std::string name;
    SystemConfig config;
    /** Expected finalActiveSlices (0 = no expectation). */
    std::uint32_t expectSlices = 0;
};

/** Printed by gtest as the parameterized test's suffix. */
std::string
caseName(const testing::TestParamInfo<SweepCase> &info)
{
    return info.param.name;
}

std::vector<SweepCase>
sweepCases()
{
    std::vector<SweepCase> cases;

    auto base = [] {
        SystemConfig c = SystemConfig::testDefault();
        c.numCores = 8;
        c.workload = "mcf";
        return c;
    };

    // Scheme axis (no resize: only Banshee can resize).
    for (const SchemeKind k :
         {SchemeKind::Banshee, SchemeKind::Alloy, SchemeKind::Unison,
          SchemeKind::Tdc, SchemeKind::CacheOnly, SchemeKind::NoCache}) {
        SystemConfig c = base().withScheme(k);
        cases.push_back({schemeKindName(k), c, 0});
    }

    // Resize axis: scripted shrink, shrink-then-grow, power cap.
    {
        SystemConfig c = base();
        c.withResizeStep(1, 5);
        cases.push_back({"Banshee_shrink", c, 5});
    }
    {
        SystemConfig c = base();
        c.withResizeStep(1, 6).withResizeStep(4, 8);
        cases.push_back({"Banshee_shrink_grow", c, 8});
    }
    {
        // A cap far below anything the device can reach: the policy
        // must shed one slice per epoch down to the floor.
        SystemConfig c = base();
        c.withPowerCap(1e-3, /*minSlices=*/4);
        cases.push_back({"Banshee_powercap", c, 4});
    }

    // Tenant axis: partitioned, and partitioned + QoS with a cap.
    {
        SystemConfig c = base();
        c.withTenants({{"a", "mcf", 1.0, 4}, {"b", "omnetpp", 1.0, 4}});
        cases.push_back({"Banshee_tenants", c, 0});
    }
    {
        SystemConfig c = base();
        c.withTenants({{"a", "mcf", 3.0, 4}, {"b", "omnetpp", 1.0, 4}});
        c.withQosArbiter(/*capWatts=*/1e-3);
        c.resize.policy.minSlices = 4;
        cases.push_back({"Banshee_tenants_powercap", c, 4});
    }

    // Every optional feature on one System — none excludes another:
    // the capped QoS arbiter, the QoS channel scheduler, Batman,
    // in-memory telemetry histograms and span tracing.
    {
        SystemConfig c = base();
        c.withTenants({{"a", "mcf", 3.0, 4}, {"b", "omnetpp", 1.0, 4}});
        c.withQosArbiter(/*capWatts=*/1e-3);
        c.resize.policy.minSlices = 4;
        c.withDramQos();
        c.enableBatman = true;
        c.withTelemetry();
        c.withSpanTrace(testing::TempDir() + "invariants_all.trace.json",
                        /*sampleShift=*/2);
        cases.push_back({"Banshee_all_features", c, 4});
    }

    return cases;
}

class InvariantSweep : public testing::TestWithParam<SweepCase>
{
};

/** Device-level identities shared by the in- and off-package DRAM. */
void
checkDevice(const char *which, DramModel &dram,
            std::uint32_t numTenants)
{
    const TrafficStats &traffic = dram.traffic();
    const EnergyStats &energy = dram.power().energy();

    // Traffic: per-category and per-tenant splits both conserve the
    // device total (the untagged bucket absorbs everything a tenant
    // id never reached).
    std::uint64_t catBytes = 0;
    for (std::size_t c = 0; c < kNumTrafficCats; ++c)
        catBytes += traffic.bytes(static_cast<TrafficCat>(c));
    EXPECT_EQ(catBytes, traffic.totalBytes()) << which;

    std::uint64_t tenantBytes = traffic.tenantBytes(kNoTenant);
    for (std::uint32_t t = 0; t < numTenants; ++t)
        tenantBytes += traffic.tenantBytes(static_cast<TenantId>(t));
    EXPECT_EQ(tenantBytes, traffic.totalBytes()) << which;

    // Energy: per-category and per-tenant dynamic splits agree, and
    // the component sum is the device total.
    double catPJ = 0.0;
    for (std::size_t c = 0; c < kNumTrafficCats; ++c)
        catPJ += energy.dynamicPJ(static_cast<TrafficCat>(c));
    EXPECT_NEAR(catPJ, energy.dynamicTotalPJ(),
                1e-6 * std::max(1.0, energy.dynamicTotalPJ()))
        << which;

    double tenantPJ = energy.tenantDynamicPJ(kNoTenant);
    for (std::uint32_t t = 0; t < numTenants; ++t)
        tenantPJ += energy.tenantDynamicPJ(static_cast<TenantId>(t));
    EXPECT_NEAR(tenantPJ, energy.dynamicTotalPJ(),
                1e-6 * std::max(1.0, energy.dynamicTotalPJ()))
        << which;

    EXPECT_NEAR(energy.totalPJ(),
                energy.dynamicTotalPJ() + energy.backgroundPJ() +
                    energy.refreshPJ() + energy.activeStandbyPJ(),
                1e-6 * std::max(1.0, energy.totalPJ()))
        << which;
}

TEST_P(InvariantSweep, AccountingIdentitiesHoldAfterDrain)
{
    const SweepCase &sc = GetParam();
    System sys(sc.config);
    const RunResult r = sys.run();

    EXPECT_GT(r.instructions, 0u);
    EXPECT_LE(r.dramCacheMisses, r.dramCacheAccesses);

    const std::uint32_t numTenants =
        static_cast<std::uint32_t>(r.tenants.size());
    MemSystem &mem = sys.memSystem();
    if (mem.inPkg())
        checkDevice("inPkg", *mem.inPkg(), numTenants);
    if (mem.offPkg())
        checkDevice("offPkg", *mem.offPkg(), numTenants);

    // RunResult's energy view mirrors the devices exactly.
    double devicePJ = 0.0;
    if (mem.inPkg())
        devicePJ += mem.inPkg()->power().energy().totalPJ();
    if (mem.offPkg())
        devicePJ += mem.offPkg()->power().energy().totalPJ();
    EXPECT_NEAR(r.totalEnergyPJ(), devicePJ,
                1e-6 * std::max(1.0, devicePJ));

    // Per-tenant run accounting partitions the totals.
    if (numTenants > 0) {
        std::uint64_t instr = 0;
        std::uint64_t acc = 0;
        for (const TenantRunStats &t : r.tenants) {
            EXPECT_LE(t.dramCacheMisses, t.dramCacheAccesses) << t.name;
            instr += t.instructions;
            acc += t.dramCacheAccesses;
        }
        EXPECT_EQ(instr, r.instructions);
        EXPECT_LE(acc, r.dramCacheAccesses);
    }

    // Residency consistency once every drain has completed, and
    // scripted/cap targets actually landed.
    if (ResizeController *resize = sys.resizeController()) {
        resize->verifyResidencyConsistent();
        if (sc.expectSlices != 0) {
            EXPECT_EQ(r.finalActiveSlices, sc.expectSlices);
            EXPECT_GT(r.resizesCompleted, 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(SchemeResizePowerTenants, InvariantSweep,
                         testing::ValuesIn(sweepCases()), caseName);

} // namespace
} // namespace banshee
