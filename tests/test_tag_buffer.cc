/**
 * @file
 * Unit tests for the Tag Buffer (paper Section 3.3): lookup/override
 * semantics, remap pinning, clean-entry replacement, the flush
 * threshold, harvest with the mappings it hands the PTE update, the
 * side-effect-free remap read, and the pair-admission check used
 * before a replacement commits.
 */

#include <gtest/gtest.h>

#include "core/tag_buffer.hh"

namespace banshee {
namespace {

TagBufferParams
tiny(std::uint32_t entries = 16, std::uint32_t ways = 4)
{
    TagBufferParams p;
    p.entries = entries;
    p.ways = ways;
    return p;
}

TEST(TagBuffer, MissThenHit)
{
    TagBuffer tb(tiny());
    EXPECT_FALSE(tb.lookup(5).has_value());
    EXPECT_TRUE(tb.insertRemap(5, PageMapping{true, 2}));
    auto m = tb.lookup(5);
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(m->cached);
    EXPECT_EQ(m->way, 2);
    EXPECT_EQ(tb.hits(), 1u);
    EXPECT_EQ(tb.misses(), 1u);
}

TEST(TagBuffer, RemapUpdatesInPlace)
{
    TagBuffer tb(tiny());
    tb.insertRemap(5, PageMapping{true, 1});
    tb.insertRemap(5, PageMapping{false, 0});
    EXPECT_EQ(tb.remapCount(), 1u); // still one remapped entry
    auto m = tb.lookup(5);
    ASSERT_TRUE(m.has_value());
    EXPECT_FALSE(m->cached);
}

TEST(TagBuffer, CleanEntriesAreReplaceableRemapsAreNot)
{
    // One set (4 ways): fill with 3 remaps + 1 clean; a new remap
    // must displace the clean entry; a further remap must fail.
    TagBuffer tb(tiny(4, 4));
    EXPECT_TRUE(tb.insertRemap(0, PageMapping{true, 0}));
    EXPECT_TRUE(tb.insertRemap(1, PageMapping{true, 1}));
    EXPECT_TRUE(tb.insertRemap(2, PageMapping{true, 2}));
    tb.insertClean(3, PageMapping{false, 0});
    EXPECT_TRUE(tb.lookup(3).has_value());

    EXPECT_TRUE(tb.insertRemap(4, PageMapping{true, 3}));
    EXPECT_FALSE(tb.lookup(3).has_value()); // clean displaced
    EXPECT_FALSE(tb.insertRemap(5, PageMapping{true, 0})); // full
}

TEST(TagBuffer, CleanInsertNeverDisplacesRemap)
{
    TagBuffer tb(tiny(4, 4));
    for (PageNum p = 0; p < 4; ++p)
        EXPECT_TRUE(tb.insertRemap(p, PageMapping{true, 0}));
    tb.insertClean(9, PageMapping{false, 0});
    EXPECT_FALSE(tb.lookup(9).has_value());
    EXPECT_EQ(tb.remapCount(), 4u);
}

TEST(TagBuffer, CleanInsertDoesNotDowngradeRemap)
{
    TagBuffer tb(tiny());
    tb.insertRemap(5, PageMapping{true, 3});
    // A later clean insert (e.g. from a PTE walk) must not overwrite
    // the only up-to-date mapping.
    tb.insertClean(5, PageMapping{false, 0});
    auto m = tb.lookup(5);
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(m->cached);
    EXPECT_EQ(m->way, 3);
    EXPECT_EQ(tb.remapCount(), 1u);
}

TEST(TagBuffer, NeedsFlushAtThreshold)
{
    TagBuffer tb(tiny(16, 4));
    std::uint32_t inserted = 0;
    PageNum p = 0;
    while (!tb.needsFlush()) {
        if (tb.insertRemap(p++, PageMapping{true, 0}))
            ++inserted;
        ASSERT_LT(p, 1000u);
    }
    // Threshold is 70 % of 16 = 11.2 -> 11 remaps.
    EXPECT_GE(inserted, 11u);
}

TEST(TagBuffer, HarvestReturnsAllRemapsAndClearsBits)
{
    TagBuffer tb(tiny());
    for (PageNum p = 0; p < 8; ++p)
        tb.insertRemap(p, PageMapping{true, static_cast<std::uint8_t>(p % 4)});
    const auto updates = tb.harvest();
    EXPECT_EQ(updates.size(), 8u);
    // Each page comes with the mapping its PTE must take.
    for (const PteUpdate &u : updates) {
        EXPECT_TRUE(u.mapping.cached);
        EXPECT_EQ(u.mapping.way, u.page % 4);
    }
    EXPECT_EQ(tb.remapCount(), 0u);
    // Entries remain as clean mapping copies (probe filter).
    for (PageNum p = 0; p < 8; ++p)
        EXPECT_TRUE(tb.lookup(p).has_value());
    // And are now displaceable again.
    EXPECT_TRUE(tb.insertRemap(100, PageMapping{true, 1}));
}

TEST(TagBuffer, PendingRemapReadsOnlyRemapsAndTouchesNothing)
{
    // One set: clean entries for pages 1, 2 and 4, a remap for 3.
    TagBuffer tb(tiny(4, 4));
    tb.insertClean(1, PageMapping{true, 0});
    tb.insertClean(2, PageMapping{true, 1});
    EXPECT_TRUE(tb.insertRemap(3, PageMapping{true, 2}));
    tb.insertClean(4, PageMapping{true, 3});
    EXPECT_FALSE(tb.pendingRemap(1).has_value()); // clean
    EXPECT_FALSE(tb.pendingRemap(9).has_value()); // absent
    const auto m = tb.pendingRemap(3);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->way, 2);
    // No lookup was counted, and page 1 is still the LRU clean entry:
    // the next clean insert displaces it.
    EXPECT_EQ(tb.hits() + tb.misses(), 0u);
    tb.insertClean(5, PageMapping{});
    EXPECT_FALSE(tb.lookup(1).has_value());
    EXPECT_TRUE(tb.lookup(2).has_value());
}

TEST(TagBuffer, CanAcceptRemapsGlobal)
{
    TagBuffer tb(tiny(8, 4));
    EXPECT_TRUE(tb.canAcceptRemaps(8));
    EXPECT_FALSE(tb.canAcceptRemaps(9));
    for (PageNum p = 0; p < 7; ++p)
        tb.insertRemap(p, PageMapping{true, 0});
    EXPECT_TRUE(tb.canAcceptRemaps(1));
    EXPECT_FALSE(tb.canAcceptRemaps(2));
}

TEST(TagBuffer, PairCheckSameSetExactlyFull)
{
    // Regression test for the replacement-admission bug: when the
    // victim's clean entry is the only displaceable slot in the set,
    // inserting the incoming page first would displace it and strand
    // the victim's remap. The pair check must reject this.
    TagBuffer tb(tiny(4, 4));
    // Three pinned remaps + one clean entry for the victim (page 3).
    tb.insertRemap(0, PageMapping{true, 0});
    tb.insertRemap(1, PageMapping{true, 1});
    tb.insertRemap(2, PageMapping{true, 2});
    tb.insertClean(3, PageMapping{true, 3});
    // Incoming page 7 (same single set), victim page 3.
    EXPECT_FALSE(tb.canInsertRemapPair(7, true, 3));
    // Without a victim one slot suffices.
    EXPECT_TRUE(tb.canInsertRemapPair(7, false, 0));
}

TEST(TagBuffer, PairCheckPassesWhenBothHaveEntries)
{
    TagBuffer tb(tiny(4, 4));
    tb.insertRemap(0, PageMapping{true, 0});
    tb.insertRemap(1, PageMapping{true, 1});
    tb.insertClean(2, PageMapping{true, 2});
    tb.insertClean(3, PageMapping{false, 0});
    // Both upgrade in place: no free slot needed.
    EXPECT_TRUE(tb.canInsertRemapPair(2, true, 3));
    EXPECT_TRUE(tb.insertRemap(2, PageMapping{false, 0}));
    EXPECT_TRUE(tb.insertRemap(3, PageMapping{true, 2}));
}

TEST(TagBuffer, PairCheckDifferentSets)
{
    TagBuffer tb(tiny(8, 4)); // 2 sets
    // Saturate set 0 with remaps (even pages); set 1 stays empty.
    tb.insertRemap(0, PageMapping{true, 0});
    tb.insertRemap(2, PageMapping{true, 0});
    tb.insertRemap(4, PageMapping{true, 0});
    tb.insertRemap(6, PageMapping{true, 0});
    EXPECT_FALSE(tb.canInsertRemapPair(8, true, 1)); // 8 -> set 0 full
    EXPECT_TRUE(tb.canInsertRemapPair(1, true, 3));  // both set 1
}

TEST(TagBuffer, LruAmongCleanEntries)
{
    TagBuffer tb(tiny(4, 4));
    tb.insertClean(0, PageMapping{});
    tb.insertClean(1, PageMapping{});
    tb.insertClean(2, PageMapping{});
    tb.insertClean(3, PageMapping{});
    tb.lookup(0); // refresh 0
    tb.insertClean(4, PageMapping{});
    EXPECT_TRUE(tb.lookup(0).has_value());
    EXPECT_FALSE(tb.lookup(1).has_value()); // 1 was LRU
}

TEST(TagBuffer, OccupancyFraction)
{
    TagBuffer tb(tiny(16, 4));
    EXPECT_DOUBLE_EQ(tb.occupancy(), 0.0);
    for (PageNum p = 0; p < 8; ++p)
        tb.insertRemap(p, PageMapping{true, 0});
    EXPECT_DOUBLE_EQ(tb.occupancy(), 0.5);
}

} // namespace
} // namespace banshee
