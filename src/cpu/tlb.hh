/**
 * @file
 * Per-core TLB holding Banshee's mapping extension bits.
 *
 * Entries are refilled from the *committed* PTE view, so between a
 * hardware remap and the next batch PTE update the TLB serves stale
 * mapping bits — by design. Shootdowns (flushAll) restore coherence.
 */

#ifndef BANSHEE_CPU_TLB_HH
#define BANSHEE_CPU_TLB_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
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

    std::uint64_t hits() const { return statHits_.value(); }
    std::uint64_t misses() const { return statMisses_.value(); }
    std::uint64_t shootdowns() const { return statShootdowns_.value(); }

    StatSet &stats() { return stats_; }

  private:
    struct Entry
    {
        PageNum page = 0;
        MappingInfo info;
        std::uint64_t stamp = 0;
        bool valid = false;
    };

    TlbParams params_;
    const PageTableManager &pageTable_;
    std::uint32_t numSets_;
    std::vector<Entry> entries_;
    std::uint64_t stampCounter_ = 1;

    StatSet stats_;
    Counter &statHits_;
    Counter &statMisses_;
    Counter &statShootdowns_;
};

} // namespace banshee

#endif // BANSHEE_CPU_TLB_HH
