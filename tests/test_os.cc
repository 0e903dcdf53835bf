/**
 * @file
 * Unit tests for the OS substrate: the PTE bits that TLB refills
 * read, and the PTE-update routine's commits, cost and locking
 * protocol.
 */

#include <gtest/gtest.h>

#include "common/event_queue.hh"
#include "common/units.hh"
#include "os/os_services.hh"
#include "os/page_table.hh"

namespace banshee {
namespace {

TEST(PageTable, DefaultsToUncached)
{
    PageTableManager pt;
    EXPECT_FALSE(pt.committedMapping(7).cached);
}

TEST(PageTable, CommitSetsPteBits)
{
    PageTableManager pt;
    pt.commit(7, PageMapping{true, 3});
    EXPECT_TRUE(pt.committedMapping(7).cached);
    EXPECT_EQ(pt.committedMapping(7).way, 3);
    EXPECT_FALSE(pt.committedMapping(8).cached); // other pages untouched

    pt.commit(7, PageMapping{});
    EXPECT_FALSE(pt.committedMapping(7).cached);
}

class OsServicesTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    PageTableManager pt;
};

TEST_F(OsServicesTest, UpdateCommitsHarvestedPages)
{
    OsServices os(eq, pt);
    os.registerTagBufferHarvester([] {
        return std::vector<PteUpdate>{{1, {true, 0}}, {2, {true, 1}}};
    });
    os.requestPteUpdate();
    EXPECT_TRUE(os.updateInProgress());
    EXPECT_FALSE(pt.committedMapping(1).cached); // commits at the end
    eq.run();
    EXPECT_FALSE(os.updateInProgress());
    EXPECT_TRUE(pt.committedMapping(1) == (PageMapping{true, 0}));
    EXPECT_TRUE(pt.committedMapping(2) == (PageMapping{true, 1}));
}

TEST_F(OsServicesTest, RoutineTakesConfiguredTime)
{
    OsCosts costs;
    costs.pteUpdateRoutine = usToCycles(20.0);
    OsServices os(eq, pt, costs);
    os.registerTagBufferHarvester([] { return std::vector<PteUpdate>{}; });
    os.requestPteUpdate();
    eq.run();
    EXPECT_EQ(eq.now(), usToCycles(20.0)); // 54000 cycles at 2.7 GHz
}

TEST_F(OsServicesTest, LocksHeldForRoutineDuration)
{
    // Banshee locks replacements while updateInProgress() holds.
    OsServices os(eq, pt);
    os.registerTagBufferHarvester([] { return std::vector<PteUpdate>{}; });
    bool heldAtListener = true;
    os.registerUpdateListener(
        [&] { heldAtListener = os.updateInProgress(); });
    EXPECT_FALSE(os.updateInProgress());
    os.requestPteUpdate();
    EXPECT_TRUE(os.updateInProgress());
    eq.run(usToCycles(20.0) - 1);
    EXPECT_TRUE(os.updateInProgress());
    eq.run();
    EXPECT_EQ(eq.now(), usToCycles(20.0));
    EXPECT_FALSE(os.updateInProgress());
    // Listeners (the resize drains) run after the lock is released.
    EXPECT_FALSE(heldAtListener);
}

TEST_F(OsServicesTest, HandlerCoreStalledShootdownCostsSplit)
{
    OsServices os(eq, pt);
    std::vector<Cycle> stalls(3, 0);
    int flushes = 0;
    for (int c = 0; c < 3; ++c) {
        os.registerCore(OsServices::CoreHooks{
            [&stalls, c](Cycle cy) { stalls[c] += cy; },
            [&flushes] { ++flushes; }});
    }
    os.registerTagBufferHarvester([] { return std::vector<PteUpdate>{}; });
    os.requestPteUpdate();
    eq.run();
    EXPECT_EQ(flushes, 3); // system-wide shootdown
    // One core paid routine (20 us) + initiator (4 us); the others
    // paid the 1 us slave cost.
    Cycle maxStall = 0, minStall = ~0ull;
    for (Cycle s : stalls) {
        maxStall = std::max(maxStall, s);
        minStall = std::min(minStall, s);
    }
    EXPECT_EQ(maxStall, usToCycles(20.0) + usToCycles(4.0));
    EXPECT_EQ(minStall, usToCycles(1.0));
}

TEST_F(OsServicesTest, ConcurrentRequestsCoalesce)
{
    OsServices os(eq, pt);
    int harvests = 0;
    os.registerTagBufferHarvester([&harvests] {
        ++harvests;
        return std::vector<PteUpdate>{};
    });
    os.requestPteUpdate();
    os.requestPteUpdate(); // ignored: one already in flight
    eq.run();
    EXPECT_EQ(harvests, 1);
    EXPECT_EQ(os.updateRuns(), 1u);
}

TEST_F(OsServicesTest, StallAllCoresHelper)
{
    OsServices os(eq, pt);
    Cycle total = 0;
    for (int c = 0; c < 4; ++c) {
        os.registerCore(OsServices::CoreHooks{
            [&total](Cycle cy) { total += cy; }, [] {}});
    }
    os.stallAllCores(100);
    EXPECT_EQ(total, 400u);
}

} // namespace
} // namespace banshee
