/**
 * @file
 * The Tag Buffer (paper Section 3.3, Figure 2).
 *
 * A small set-associative SRAM structure in each memory controller
 * holding the mapping of recently remapped pages (remap bit set) plus
 * opportunistic clean copies of mappings for pages likely to produce
 * LLC dirty evictions (remap bit clear). Clean entries are replaceable
 * (LRU among remap==0); remapped entries may only leave through a
 * harvest, i.e. the software PTE-update routine.
 */

#ifndef BANSHEE_CORE_TAG_BUFFER_HH
#define BANSHEE_CORE_TAG_BUFFER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "os/page_table.hh"

namespace banshee {

struct TagBufferParams
{
    std::uint32_t entries = 1024;
    std::uint32_t ways = 8;
};

class TagBuffer
{
  public:
    explicit TagBuffer(const TagBufferParams &params);

    /** Mapping lookup; updates LRU state on hit. */
    std::optional<PageMapping> lookup(PageNum page);

    /**
     * Mapping of @p page's remap entry, if it has one. Touches no LRU
     * stamp and no counter (consistency checks).
     */
    std::optional<PageMapping> pendingRemap(PageNum page) const;

    /**
     * Record a remap (remap bit set). Fails (returns false) only when
     * the set has no invalid or clean entry to displace — the caller
     * must then refuse the replacement.
     */
    bool insertRemap(PageNum page, PageMapping mapping);

    /**
     * Opportunistically cache a PTE-consistent mapping (remap clear),
     * displacing only invalid or clean entries. No effect if the set
     * is full of remapped entries.
     */
    void insertClean(PageNum page, PageMapping mapping);

    /** True if @p n more remap insertions are guaranteed to succeed. */
    bool canAcceptRemaps(std::uint32_t n) const;

    /**
     * Exact per-set admission check for the two remap insertions a
     * replacement produces (the inserted page, and the victim when
     * one exists). A replacement must not start unless both fit.
     */
    bool canInsertRemapPair(PageNum a, bool hasB, PageNum b) const;

    /** True once the remap population crosses the flush threshold. */
    bool
    needsFlush() const
    {
        return remapCount_ >= static_cast<std::uint32_t>(
                                  kFlushThreshold * params_.entries);
    }

    /**
     * The PTE-update routine: returns every remapped page with its
     * new mapping (the PTE bits to commit) and clears the remap bits
     * (entries stay valid as clean mapping copies).
     */
    std::vector<PteUpdate> harvest();

    std::uint32_t remapCount() const { return remapCount_; }

    double
    occupancy() const
    {
        return static_cast<double>(remapCount_) / params_.entries;
    }

    /** Lookup outcomes since the last resetStats(). */
    std::uint64_t hits() const { return statHits_.value(); }
    std::uint64_t misses() const { return statMisses_.value(); }

    /** Zero the lookup counters (warmup boundary). */
    void resetStats() { stats_.reset(); }

  private:
    /** Fraction of remapped entries that triggers the PTE update. */
    static constexpr double kFlushThreshold = 0.7;

    struct Entry
    {
        PageNum page = 0;
        PageMapping mapping;
        std::uint64_t stamp = 0;
        bool valid = false;
        bool remap = false;
    };

    Entry *set(PageNum page);
    const Entry *set(PageNum page) const;
    Entry *find(PageNum page);

    /**
     * Place a new entry for @p page (not present) in an invalid way,
     * else over the least-recently-used clean entry: remapped entries
     * are pinned until harvested. Returns false when every way holds
     * a remap.
     */
    bool place(PageNum page, PageMapping mapping, bool remap);

    TagBufferParams params_;
    std::uint32_t numSets_;
    std::vector<Entry> entries_;
    std::uint32_t remapCount_ = 0;
    std::uint64_t stampCounter_ = 1;

    StatSet stats_;
    Counter &statHits_;
    Counter &statMisses_;
};

} // namespace banshee

#endif // BANSHEE_CORE_TAG_BUFFER_HH
