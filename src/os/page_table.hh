/**
 * @file
 * Page table with Banshee's PTE extension (paper Section 3.2).
 *
 * Banshee adds a "cached" bit and "way" bits to each PTE. Under lazy
 * coherence (Section 3.4) PTEs, and the TLBs refilled from them, lag
 * the hardware: a replacement takes effect at once in the DRAM-cache
 * tags, and the page's Tag Buffer remap entry carries the new bits
 * until the batch PTE-update routine commits them here. The table
 * holds only those PTE bits; the tags are the one copy of the
 * hardware mapping (see BansheeScheme).
 */

#ifndef BANSHEE_OS_PAGE_TABLE_HH
#define BANSHEE_OS_PAGE_TABLE_HH

#include <cstdint>
#include <unordered_map>

#include "common/types.hh"

namespace banshee {

/** The PTE extension bits (fits in otherwise-unused PTE bits). */
struct PageMapping
{
    bool cached = false;
    std::uint8_t way = 0;

    bool
    operator==(const PageMapping &o) const
    {
        return cached == o.cached && (!cached || way == o.way);
    }
};

/** One remapped page's new PTE bits, as the PTE-update routine
 *  commits them. */
struct PteUpdate
{
    PageNum page;
    PageMapping mapping;
};

class PageTableManager
{
  public:
    /** PTE bits a TLB refill reads (uncached until first committed). */
    PageMapping
    committedMapping(PageNum page) const
    {
        auto it = pages_.find(page);
        return it == pages_.end() ? PageMapping{} : it->second.committed;
    }

    /** The PTE-update routine writes @p page's new bits. */
    void
    commit(PageNum page, PageMapping mapping)
    {
        pages_[page].committed = mapping;
    }

  private:
    /** One page's PTE extension bits (simbench counts finds on this
     *  map by the entry's type name). */
    struct Entry
    {
        PageMapping committed;
    };

    std::unordered_map<PageNum, Entry> pages_;
};

} // namespace banshee

#endif // BANSHEE_OS_PAGE_TABLE_HH
