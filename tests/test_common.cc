/**
 * @file
 * Unit tests for src/common: RNG, alias table, event queue, stats.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "common/alias_table.hh"
#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/units.hh"

namespace banshee {
namespace {

TEST(Types, LineAndPageHelpers)
{
    EXPECT_EQ(lineOf(0), 0u);
    EXPECT_EQ(lineOf(63), 0u);
    EXPECT_EQ(lineOf(64), 1u);
    EXPECT_EQ(lineToAddr(lineOf(12345)), 12288u);
    EXPECT_EQ(pageOf(4096), 1u);
    EXPECT_EQ(pageOfLine(lineOf(4096)), 1u);
    EXPECT_EQ(lineInPage(lineOf(4096 + 128)), 2u);
    EXPECT_EQ(kLinesPerPage, 64u);
}

TEST(Types, Pow2Helpers)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(1024));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(4096), 12u);
}

TEST(Units, CycleConversions)
{
    // 2.7 GHz: 1 us = 2700 cycles.
    EXPECT_EQ(usToCycles(1.0), 2700u);
    EXPECT_EQ(usToCycles(20.0), 54000u);
    EXPECT_NEAR(cyclesToUs(2700), 1.0, 1e-9);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BoundedBelowBound)
{
    Rng r(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBelow(17), 17u);
}

TEST(Rng, UniformityCoarse)
{
    Rng r(11);
    std::vector<int> buckets(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++buckets[r.nextBelow(10)];
    for (int b : buckets)
        EXPECT_NEAR(b, n / 10, n / 100); // within 10 % relative
}

TEST(AliasTable, RespectsWeights)
{
    AliasTable t({1.0, 2.0, 7.0});
    Rng r(5);
    std::vector<int> counts(3, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[t.sample(r)];
    EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / double(n), 0.2, 0.01);
    EXPECT_NEAR(counts[2] / double(n), 0.7, 0.01);
}

TEST(AliasTable, ZeroWeightNeverSampled)
{
    AliasTable t({0.0, 1.0});
    Rng r(6);
    for (int i = 0; i < 10000; ++i)
        EXPECT_EQ(t.sample(r), 1u);
}

TEST(AliasTable, SingleOutcome)
{
    AliasTable t({5.0});
    Rng r(1);
    EXPECT_EQ(t.sample(r), 0u);
}

TEST(AliasTable, ZipfWeightsMonotone)
{
    auto w = zipfWeights(100, 0.8);
    ASSERT_EQ(w.size(), 100u);
    for (std::size_t i = 1; i < w.size(); ++i)
        EXPECT_LT(w[i], w[i - 1]);
    // alpha = 0 is uniform.
    auto u = zipfWeights(10, 0.0);
    for (double v : u)
        EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&](Cycle) { order.push_back(3); });
    eq.schedule(10, [&](Cycle) { order.push_back(1); });
    eq.schedule(20, [&](Cycle) { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, FifoTieBreakAtSameCycle)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i](Cycle) { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&](Cycle) {
        ++fired;
        eq.schedule(2, [&](Cycle) { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUpToLimitLeavesRemainder)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&](Cycle) { ++fired; });
    eq.schedule(20, [&](Cycle) { ++fired; });
    eq.run(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RequestStopHaltsProcessing)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&](Cycle) {
        ++fired;
        eq.requestStop();
    });
    eq.schedule(2, [&](Cycle) { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(Stats, CounterBasics)
{
    StatSet s;
    Counter &c = s.counter("x");
    ++c;
    c += 5;
    EXPECT_EQ(s.value("x"), 6u);
    s.reset();
    EXPECT_EQ(s.value("x"), 0u);
    EXPECT_EQ(s.value("missing"), 0u);
}

TEST(Stats, CounterReferenceStable)
{
    StatSet s;
    Counter &a = s.counter("a");
    for (int i = 0; i < 100; ++i)
        s.counter("c" + std::to_string(i));
    ++a;
    EXPECT_EQ(s.value("a"), 1u);
}

TEST(Stats, ResetAtWarmupBoundaryClearsEveryCounter)
{
    // The warmup boundary resets whole StatSets; references handed
    // out before the reset must stay live and start from zero.
    StatSet s;
    Counter &hits = s.counter("hits");
    Counter &misses = s.counter("misses");
    hits += 10;
    misses += 3;
    s.reset();
    EXPECT_EQ(s.value("hits"), 0u);
    EXPECT_EQ(s.value("misses"), 0u);
    ++hits;
    EXPECT_EQ(s.value("hits"), 1u);
    EXPECT_EQ(s.value("misses"), 0u);
}

TEST(Stats, IterationOrderIsLexicographicAndStable)
{
    const auto listing = [](const StatSet &set) {
        std::ostringstream os;
        for (const auto &kv : set.all())
            os << kv.first << "=" << kv.second->value() << " ";
        return os.str();
    };
    StatSet s;
    s.counter("zeta") += 1;
    s.counter("alpha") += 2;
    s.counter("mid") += 3;
    EXPECT_EQ(listing(s), "alpha=2 mid=3 zeta=1 ");

    // Creating another counter must not reorder the existing ones —
    // telemetry registers StatSet counters by iteration order (the
    // resize.* gauges), so a stable order keeps metric names
    // consistent across runs.
    s.counter("beta");
    EXPECT_EQ(listing(s), "alpha=2 beta=0 mid=3 zeta=1 ");
}

TEST(Stats, EwmaConvergesToRatio)
{
    EwmaRatio e(10, 0.5, 1.0);
    for (int i = 0; i < 1000; ++i)
        e.record(i % 10 < 3); // 30 % hit ratio
    EXPECT_NEAR(e.value(), 0.3, 0.05);
}

TEST(Stats, EwmaStartsAtInitial)
{
    EwmaRatio e(100, 0.25, 0.75);
    EXPECT_DOUBLE_EQ(e.value(), 0.75);
    e.record(true); // below window: unchanged
    EXPECT_DOUBLE_EQ(e.value(), 0.75);
}

} // namespace
} // namespace banshee
