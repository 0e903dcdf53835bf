/**
 * @file
 * Per-core TLB holding Banshee's mapping extension bits.
 *
 * Entries are refilled from the *committed* PTE view, so between a
 * hardware remap and the next batch PTE update the TLB serves stale
 * mapping bits — by design. Shootdowns (flushAll) restore coherence.
 *
 * The entries are an LRU Cache of page numbers whose meta word holds
 * the PTE bits.
 */

#ifndef BANSHEE_CPU_TLB_HH
#define BANSHEE_CPU_TLB_HH

#include <cstdint>

#include "cache/cache.hh"
#include "common/types.hh"
#include "mem/request.hh"
#include "os/page_table.hh"

namespace banshee {

struct TlbParams
{
    std::uint32_t entries = 1024;
    std::uint32_t ways = 8;
    Cycle missLatency = 100; ///< page-walk cost in cycles
};

class Tlb
{
  public:
    Tlb(const TlbParams &params, const PageTableManager &pageTable);

    struct LookupResult
    {
        MappingInfo info;
        Cycle latency = 0; ///< 0 on hit, missLatency on refill
    };

    /** Translate @p page, refilling from committed PTEs on a miss. */
    LookupResult lookup(PageNum page);

    /** TLB shootdown: drop every entry. */
    void flushAll();

    std::uint64_t hits() const { return entries_.hits(); }
    std::uint64_t misses() const { return entries_.misses(); }
    std::uint64_t shootdowns() const { return shootdowns_; }

    /** Restart the hit, miss and shootdown counts (warmup boundary). */
    void resetStats();

  private:
    Cycle missLatency_;
    const PageTableManager &pageTable_;
    Cache entries_;
    std::uint64_t shootdowns_ = 0;
};

} // namespace banshee

#endif // BANSHEE_CPU_TLB_HH
