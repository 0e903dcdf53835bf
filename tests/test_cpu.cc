/**
 * @file
 * Unit tests for the core model and TLB: retirement accounting,
 * MSHR-bounded memory-level parallelism, dependent-load
 * serialization, external stalls, and TLB staleness semantics.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/event_queue.hh"
#include "cpu/core_model.hh"
#include "cpu/tlb.hh"
#include "os/page_table.hh"

namespace banshee {
namespace {

/** Backend whose fetches complete after a fixed delay. */
class DelayBackend : public MemBackend
{
  public:
    DelayBackend(EventQueue &eq, Cycle delay) : eq_(eq), delay_(delay) {}

    void
    fetchLine(LineAddr line, const MappingInfo &, MissDoneFn done) override
    {
        ++fetches;
        fetched.push_back(line);
        if (holdAll) {
            held.push_back(std::move(done));
            return;
        }
        eq_.schedule(eq_.now() + delay_, std::move(done));
    }

    void
    writebackLine(LineAddr) override
    {
        ++writebacks;
    }

    void
    releaseAll()
    {
        auto moved = std::move(held);
        held.clear();
        const Cycle when = eq_.now() + delay_;
        for (auto &done : moved)
            eq_.schedule(when, std::move(done));
    }

    EventQueue &eq_;
    Cycle delay_;
    bool holdAll = false;
    std::vector<MissDoneFn> held;
    std::vector<LineAddr> fetched; ///< every fetched line, in order
    std::uint64_t fetches = 0;
    std::uint64_t writebacks = 0;
};

/** Pattern replaying a fixed vector of ops, then repeating. */
class ScriptPattern : public AccessPattern
{
  public:
    explicit ScriptPattern(std::vector<MemOp> ops) : ops_(std::move(ops)) {}

    MemOp
    next(Rng &) override
    {
        MemOp op = ops_[pos_ % ops_.size()];
        ++pos_;
        return op;
    }

  private:
    std::vector<MemOp> ops_;
    std::size_t pos_ = 0;
};

struct CoreRig
{
    explicit CoreRig(std::vector<MemOp> ops, Cycle memDelay = 200,
                     CoreParams params = CoreParams{})
        : backend(eq, memDelay), hierarchy(eq, makeHier(), backend),
          tlb(TlbParams{}, pageTable),
          pattern(std::move(ops)),
          core(0, params, eq, hierarchy, tlb, pattern, 1)
    {
    }

    static HierarchyParams
    makeHier()
    {
        HierarchyParams p;
        p.numCores = 1;
        p.l1iSize = 4096;
        p.l1iWays = 2;
        p.l1dSize = 4096;
        p.l1dWays = 2;
        p.l2Size = 8192;
        p.l2Ways = 4;
        p.l3Size = 32768;
        p.l3Ways = 4;
        return p;
    }

    EventQueue eq;
    PageTableManager pageTable;
    DelayBackend backend;
    CacheHierarchy hierarchy;
    Tlb tlb;
    ScriptPattern pattern;
    CoreModel core;
};

MemOp
loadOp(Addr addr, std::uint8_t gap = 3, bool dep = false)
{
    MemOp op;
    op.addr = addr;
    op.nonMemBefore = gap;
    op.dependsOnPrev = dep;
    return op;
}

TEST(CoreModel, RetiresToLimitAndParks)
{
    CoreRig rig({loadOp(0x1000)});
    bool parked = false;
    rig.core.onParked([&parked](CoreId) { parked = true; });
    rig.core.setInstrLimit(1000);
    rig.core.start();
    rig.eq.run();
    EXPECT_TRUE(parked);
    EXPECT_TRUE(rig.core.parked());
    EXPECT_GE(rig.core.instrRetired(), 1000u);
    // Overshoot bounded by one op's instruction count.
    EXPECT_LT(rig.core.instrRetired(), 1010u);
}

TEST(CoreModel, L1HitsRetireNearIssueWidth)
{
    // One hot line, gap 3 -> 4 instructions per op at width 4
    // should approach 1 cycle/op.
    CoreRig rig({loadOp(0x1000, 3)});
    rig.core.setInstrLimit(40000);
    rig.core.start();
    rig.eq.run();
    const double cpi =
        static_cast<double>(rig.core.localCycle()) /
        rig.core.instrRetired();
    EXPECT_LT(cpi, 0.5); // ~0.25 ideal, allow warmup slack
}

TEST(CoreModel, IndependentMissesOverlap)
{
    // 8 independent lines of one page, each missing to a 200-cycle
    // backend: with MLP they overlap, so the first round costs ~one
    // round trip, not eight (same page: a single TLB walk).
    std::vector<MemOp> ops;
    for (int i = 0; i < 8; ++i)
        ops.push_back(loadOp(0x100000 + i * 64, 0));
    CoreRig rig(ops, 200);
    rig.core.setInstrLimit(80); // 80 ops (gap 0); rounds 2+ hit L1
    rig.core.start();
    rig.eq.run();
    // Serialized misses would need 8 x 200 = 1600+ cycles.
    EXPECT_LT(rig.core.localCycle(), 800u);
}

TEST(CoreModel, DependentLoadsSerialize)
{
    std::vector<MemOp> indep, dep;
    for (int i = 0; i < 16; ++i) {
        indep.push_back(loadOp(0x100000 + i * (1 << 16), 0, false));
        dep.push_back(loadOp(0x100000 + i * (1 << 16), 0, true));
    }
    CoreRig a(indep, 300);
    a.core.setInstrLimit(16);
    a.core.start();
    a.eq.run();

    CoreRig b(dep, 300);
    b.core.setInstrLimit(16);
    b.core.start();
    b.eq.run();

    // Pointer chasing must be several times slower than independent
    // misses (the mcf effect). The independent run still pays serial
    // TLB walks (distinct pages), so the gap is ~3x, not ~10x.
    EXPECT_GT(b.core.localCycle(), a.core.localCycle() * 5 / 2);
}

TEST(CoreModel, MshrLimitBoundsOutstandingMisses)
{
    std::vector<MemOp> ops;
    for (int i = 0; i < 64; ++i)
        ops.push_back(loadOp(0x100000 + i * (1 << 16), 0));
    CoreParams params;
    params.mshrs = 4;
    CoreRig rig(ops, 100000, params); // backend essentially never
    rig.backend.holdAll = true;
    rig.core.setInstrLimit(64);
    rig.core.start();
    rig.eq.run();
    EXPECT_FALSE(rig.core.parked());
    // At most mshrs fetches in flight (instruction fetches may add
    // one more stream).
    EXPECT_LE(rig.backend.fetches, 4u + 1u);
}

TEST(CoreModel, RobWindowBoundsRunahead)
{
    // A single never-completing miss must stop the core within the
    // reorder window.
    CoreParams params;
    params.robSize = 64;
    std::vector<MemOp> ops;
    ops.push_back(loadOp(0x100000, 0));
    for (int i = 0; i < 63; ++i)
        ops.push_back(loadOp(0x1000, 0)); // L1-hittable fillers
    CoreRig rig(ops, 1, params);
    rig.backend.holdAll = true;
    rig.core.setInstrLimit(100000);
    rig.core.start();
    rig.eq.run();
    EXPECT_FALSE(rig.core.parked());
    // Retired instructions bounded near the window size (first miss
    // blocks retirement; issue stops at robSize past it). The L1
    // filler lines themselves first miss, so allow a small factor.
    EXPECT_LE(rig.core.instrRetired(), 200u);
    rig.backend.holdAll = false;
    rig.backend.releaseAll();
    rig.eq.run();
    EXPECT_TRUE(rig.core.parked());
}

TEST(CoreModel, ExternalStallAddsCycles)
{
    CoreRig a({loadOp(0x1000)});
    a.core.setInstrLimit(1000);
    a.core.start();
    a.eq.run();
    const Cycle base = a.core.localCycle();

    CoreRig b({loadOp(0x1000)});
    b.core.setInstrLimit(1000);
    b.core.addStall(5000);
    b.core.start();
    b.eq.run();
    // The stall shifts execution in time, which perturbs DRAM row
    // state slightly; allow a small tolerance around the full 5000.
    EXPECT_GE(b.core.localCycle() + 200, base + 5000);
    EXPECT_GT(b.core.localCycle(), base + 4000);
}

TEST(CoreModel, IssuesPatternOpsInOrder)
{
    // Loads and stores to distinct lines, more than the 32 KB L3
    // holds: every op misses the LLC, so the backend sees the data
    // lines in issue order. A quantum of 5 ops and 2 MSHRs make the
    // core yield and block in the middle of its 16-op draws, and the
    // first phase ends in one (1000 ops, 1 instruction each).
    constexpr std::size_t kOps = 2000;
    constexpr std::uint64_t kFirstPhase = 1000;
    constexpr std::uint64_t kSecondPhase = 1900;
    std::vector<MemOp> ops;
    for (std::size_t i = 0; i < kOps; ++i) {
        MemOp op = loadOp(0x100000 + i * kLineBytes, 0);
        op.isWrite = i % 3 == 0;
        ops.push_back(op);
    }
    CoreParams params;
    params.quantumOps = 5;
    params.mshrs = 2;
    CoreRig rig(ops, 50, params);
    // Stop at the park, as System::runPhase does, with misses still
    // in flight across the phase boundary.
    rig.core.onParked([&rig](CoreId) { rig.eq.requestStop(); });
    for (const std::uint64_t limit : {kFirstPhase, kSecondPhase}) {
        rig.core.setInstrLimit(limit);
        rig.core.start();
        rig.eq.run();
        ASSERT_TRUE(rig.core.parked());
        ASSERT_EQ(rig.core.instrRetired(), limit);
    }

    const Addr codeBase = CoreModel::codeRegionBase(0, params);
    std::vector<LineAddr> data;
    for (const LineAddr line : rig.backend.fetched) {
        if (lineToAddr(line) < codeBase)
            data.push_back(line);
    }
    ASSERT_EQ(data.size(), kSecondPhase);
    for (std::size_t i = 0; i < data.size(); ++i)
        ASSERT_EQ(data[i], lineOf(ops[i].addr)) << "op " << i;
}

//
// TLB.
//

TEST(Tlb, MissChargesWalkThenHits)
{
    PageTableManager pt;
    TlbParams params;
    params.missLatency = 77;
    Tlb tlb(params, pt);
    auto r = tlb.lookup(42);
    EXPECT_EQ(r.latency, 77u);
    r = tlb.lookup(42);
    EXPECT_EQ(r.latency, 0u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, CommitReachesTlbOnlyAfterShootdown)
{
    PageTableManager pt;
    Tlb tlb(TlbParams{}, pt);
    auto r = tlb.lookup(42);
    EXPECT_FALSE(r.info.cached);
    pt.commit(42, PageMapping{true, 2});
    // Entry still cached in the TLB: still stale until a shootdown.
    r = tlb.lookup(42);
    EXPECT_FALSE(r.info.cached);
    tlb.flushAll();
    r = tlb.lookup(42);
    EXPECT_TRUE(r.info.cached);
    EXPECT_EQ(r.info.way, 2);
}

TEST(Tlb, FlushAllEvictsEverything)
{
    PageTableManager pt;
    Tlb tlb(TlbParams{}, pt);
    for (PageNum p = 0; p < 100; ++p)
        tlb.lookup(p);
    tlb.flushAll();
    const auto missesBefore = tlb.misses();
    for (PageNum p = 0; p < 100; ++p)
        tlb.lookup(p);
    EXPECT_EQ(tlb.misses(), missesBefore + 100);
    EXPECT_EQ(tlb.shootdowns(), 1u);
}

TEST(Tlb, LruWithinSet)
{
    PageTableManager pt;
    TlbParams params;
    params.entries = 8;
    params.ways = 4; // 2 sets
    Tlb tlb(params, pt);
    // Pages 0,2,4,6 map to set 0. Fill, refresh 0, add 8.
    tlb.lookup(0);
    tlb.lookup(2);
    tlb.lookup(4);
    tlb.lookup(6);
    tlb.lookup(0);
    tlb.lookup(8); // evicts 2 (LRU)
    EXPECT_EQ(tlb.lookup(0).latency, 0u);
    EXPECT_NE(tlb.lookup(2).latency, 0u);
}

} // namespace
} // namespace banshee
