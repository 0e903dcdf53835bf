/**
 * @file
 * Unit tests of the intrusive two-level event queue: same-cycle FIFO
 * determinism, stop/limit semantics, cancel/re-arm (including the
 * positional revival contract the DRAM kick relies on), and
 * wheel <-> far-heap migration.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/event_queue.hh"

using namespace banshee;

namespace {

/** Far enough ahead that entries land in the far heap (wheel span is
 *  an implementation detail; 1M cycles is beyond any plausible one). */
constexpr Cycle kFar = 1'000'000;

} // namespace

TEST(EventQueue, SameCycleFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&](Cycle) { order.push_back(1); });
    eq.schedule(5, [&](Cycle) { order.push_back(0); });
    eq.schedule(10, [&](Cycle) { order.push_back(2); });
    eq.schedule(10, [&](Cycle) { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SameCycleScheduleFromCallbackRunsThisCycle)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(7, [&](Cycle) {
        order.push_back(0);
        // Scheduled at the current cycle from within it: runs after
        // everything already queued for cycle 7, before cycle 8.
        eq.schedule(7, [&](Cycle) { order.push_back(2); });
    });
    eq.schedule(7, [&](Cycle) { order.push_back(1); });
    eq.schedule(8, [&](Cycle) { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, OneShotReceivesItsFiringCycle)
{
    EventQueue eq;
    std::vector<Cycle> fired;
    eq.schedule(12, [&](Cycle c) { fired.push_back(c); });
    eq.schedule(kFar, [&](Cycle c) { fired.push_back(c); });
    eq.run();
    EXPECT_EQ(fired, (std::vector<Cycle>{12, kFar}));
}

TEST(EventQueue, RunLimitBoundary)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&](Cycle) { fired |= 1; });
    eq.schedule(11, [&](Cycle) { fired |= 2; });
    // Events at exactly the limit run; later ones stay queued.
    EXPECT_EQ(eq.run(10), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RequestStopHaltsBetweenEvents)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&](Cycle) {
        order.push_back(0);
        eq.requestStop();
    });
    eq.schedule(5, [&](Cycle) { order.push_back(1); });
    eq.schedule(6, [&](Cycle) { order.push_back(2); });
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(order, (std::vector<int>{0}));
    // The same-cycle suffix resumes, in order, on the next run().
    EXPECT_EQ(eq.run(), 2u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, PreSetStopRunsNothing)
{
    EventQueue eq;
    bool fired = false;
    eq.schedule(1, [&](Cycle) { fired = true; });
    eq.requestStop();
    EXPECT_EQ(eq.run(), 0u);
    EXPECT_FALSE(fired);
    // The stop is consumed; a following run() proceeds.
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_TRUE(fired);
}

TEST(TickEvent, CancelPreventsFiring)
{
    EventQueue eq;
    int fires = 0;
    TickEvent ev([&] { fires++; });
    eq.schedule(ev, 10);
    EXPECT_TRUE(ev.armed());
    EXPECT_EQ(ev.when(), 10u);
    ev.cancel();
    EXPECT_FALSE(ev.armed());
    EXPECT_TRUE(eq.empty());
    eq.schedule(50, [](Cycle) {});
    eq.run();
    EXPECT_EQ(fires, 0);
    EXPECT_EQ(eq.now(), 50u);
}

TEST(TickEvent, RearmSupersedes)
{
    EventQueue eq;
    std::vector<Cycle> fires;
    TickEvent ev([&] { fires.push_back(eq.now()); });
    eq.schedule(ev, 100);
    eq.schedule(ev, 40); // moved earlier; the arm at 100 is dead
    eq.run();
    EXPECT_EQ(fires, (std::vector<Cycle>{40}));
    EXPECT_FALSE(ev.armed());
    // Re-arm after firing works from the callback's point of view too.
    eq.schedule(ev, 200);
    eq.run();
    EXPECT_EQ(fires, (std::vector<Cycle>{40, 200}));
}

TEST(TickEvent, SelfRearmingClock)
{
    EventQueue eq;
    int ticks = 0;
    TickEvent clock;
    clock.setCallback([&] {
        if (++ticks < 5)
            eq.scheduleAfter(clock, 10);
    });
    eq.scheduleAfter(clock, 10);
    eq.run();
    EXPECT_EQ(ticks, 5);
    EXPECT_EQ(eq.now(), 50u);
}

TEST(TickEvent, RevivalKeepsOriginalPosition)
{
    // The DRAM-kick pattern: arm at W, supersede to an earlier cycle,
    // and from that firing re-arm back to exactly W. The event must
    // fire at the *original* entry's FIFO position within W, ahead of
    // events scheduled between the first arm and the re-arm.
    EventQueue eq;
    std::vector<int> order;
    TickEvent kick([&] { order.push_back(0); });
    TickEvent early([&] {
        // The earlier work is done; re-arm back onto cycle 100.
        eq.schedule(kick, 100);
    });
    eq.schedule(kick, 100);  // entry A at 100
    eq.schedule(kick, 90);   // supersede to 90
    eq.schedule(100, [&](Cycle) { order.push_back(1); }); // after A
    eq.schedule(early, 95);  // re-arms kick to 100
    eq.run();
    // kick fired at 90 (the live arm), then early re-armed it onto
    // cycle 100 where entry A still sits ahead of the "1" closure.
    EXPECT_EQ(order, (std::vector<int>{0, 0, 1}));
}

TEST(TickEvent, DestructorUnregistersArmedEvent)
{
    EventQueue eq;
    bool other = false;
    {
        TickEvent ev([] { ADD_FAILURE() << "destroyed event fired"; });
        eq.schedule(ev, 10);
        eq.schedule(ev, kFar + 10); // also leave a far-heap entry
        eq.schedule(ev, 5);
    }
    eq.schedule(20, [&](Cycle) { other = true; });
    eq.run();
    EXPECT_TRUE(other);
}

TEST(EventQueue, FarHeapMigration)
{
    EventQueue eq;
    std::vector<int> order;
    // Far-future events, scheduled out of order, plus near ones.
    eq.schedule(kFar + 3, [&](Cycle) { order.push_back(3); });
    eq.schedule(kFar + 1, [&](Cycle) { order.push_back(1); });
    eq.schedule(2, [&](Cycle) {
        order.push_back(0);
        // From a near event, schedule into the same far cycle: FIFO
        // says it runs after the entry already queued for kFar+1.
        eq.schedule(kFar + 1, [&](Cycle) { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.now(), kFar + 3);
}

TEST(EventQueue, TickEventAcrossWheelAndHeap)
{
    EventQueue eq;
    std::vector<Cycle> fires;
    TickEvent ev([&] { fires.push_back(eq.now()); });
    eq.schedule(ev, kFar); // far heap
    eq.schedule(ev, 10);   // superseded into the wheel
    eq.run();
    EXPECT_EQ(fires, (std::vector<Cycle>{10}));
    // And the reverse: wheel arm superseded by... nothing can move it
    // later (supersede-to-later is a new arm too); verify it fires
    // once at the new cycle.
    eq.schedule(ev, eq.now() + kFar);
    eq.schedule(ev, eq.now() + 1);
    eq.run();
    EXPECT_EQ(fires.size(), 2u);
    EXPECT_EQ(fires[1], 11u);
}

TEST(EventQueue, CountsAndReset)
{
    EventQueue eq;
    int fires = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(static_cast<Cycle>(i * 500), [&](Cycle) { fires++; });
    EXPECT_EQ(eq.size(), 10u);
    eq.run();
    EXPECT_EQ(fires, 10);
    EXPECT_EQ(eq.eventsExecuted(), 10u);

    TickEvent ev([&] { fires++; });
    eq.schedule(ev, eq.now() + 100);
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.eventsExecuted(), 0u);
    EXPECT_FALSE(ev.armed());
    // The queue is fully usable after reset.
    eq.schedule(ev, 7);
    eq.run();
    EXPECT_EQ(fires, 11);
}
