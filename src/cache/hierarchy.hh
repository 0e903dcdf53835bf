/**
 * @file
 * Three-level cache hierarchy (paper Table 2): per-core L1I/L1D and
 * L2, a shared inclusive L3, and an MSHR table that merges concurrent
 * misses to the same line across cores. The hierarchy reads the event
 * clock to time each LLC miss from its MSHR allocation to its fill.
 */

#ifndef BANSHEE_CACHE_HIERARCHY_HH
#define BANSHEE_CACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/request.hh"

namespace banshee {

class EventQueue;  // common/event_queue.hh
class PageJournal; // telemetry/span_trace.hh

struct HierarchyParams
{
    std::uint32_t numCores = 16;
    std::uint64_t l1iSize = 32 * 1024;
    std::uint32_t l1iWays = 4;
    std::uint64_t l1dSize = 32 * 1024;
    std::uint32_t l1dWays = 8;
    std::uint64_t l2Size = 128 * 1024;
    std::uint32_t l2Ways = 8;
    std::uint64_t l3Size = 8ull * 1024 * 1024;
    std::uint32_t l3Ways = 16;
    Cycle l1Latency = 4;
    Cycle l2Latency = 12;
    Cycle l3Latency = 35;
};

/**
 * The hierarchy is functional-immediate: hits return a latency, LLC
 * misses hand a completion callback to the MemBackend. Inclusion is
 * enforced (L3 evictions back-invalidate L1/L2 copies via per-line
 * sharer masks), so every dirty line eventually reaches the backend
 * as an LLC writeback — the traffic Banshee's Tag Buffer must probe
 * for.
 *
 * Line metadata keeps inclusion exact and cheap:
 *  - an L3 line's meta is its sharer mask (bit c: core c's L2 may
 *    hold it; a superset, never cleared on L2 eviction);
 *  - an L2 line's meta holds presence bits (kInL1d, kInL1i) naming
 *    which of its core's L1s hold the line, set on L1 fill and
 *    cleared on L1 eviction;
 *  - an L1 line's meta is the index of its L2 copy's slot.
 * An L1 eviction so merges its dirty bit into L2 and clears the
 * presence bit in O(1), after an always-on check that the slot still
 * holds the line. An L2 eviction back-invalidates only the flagged
 * L1s; an L3 eviction invalidates each sharer's L2 copy and then only
 * the L1s flagged in it. Inclusion (L1 within its core's L2, L2
 * within L3) is an asserted invariant, not a fallback path.
 */
class CacheHierarchy
{
  public:
    enum class Level : std::uint8_t { L1, L2, L3, Mem };

    struct AccessResult
    {
        Level level = Level::L1;
        Cycle latency = 0;     ///< hit latency; miss adds backend time
        bool pending = false;  ///< true when the done callback will fire
    };

    /** @p eq is read only for the clock that stamps each miss. */
    CacheHierarchy(const EventQueue &eq, const HierarchyParams &params,
                   MemBackend &backend);

    /** Attach span tracing: LLC misses to sampled pages emit
     *  issue->fill spans. Null = off. */
    void setSpanTrace(PageJournal *spans) { spans_ = spans; }

    /**
     * Data access from core @p core.
     *
     * On an LLC miss, @p done fires when the line arrives (latency
     * already includes the lookup path). Stores are write-allocate
     * and never pend (posted into the L1 once the line arrives).
     */
    AccessResult access(CoreId core, Addr addr, bool isWrite,
                        const MappingInfo &mapping, MissDoneFn done);

    /** Instruction fetch (separate L1I, then shared L2/L3 path). */
    AccessResult fetch(CoreId core, Addr addr, const MappingInfo &mapping,
                       MissDoneFn done);

    /** True if the line is present anywhere on chip (for tests). */
    bool presentAnywhere(LineAddr line) const;

    Cache &l1d(CoreId core) { return *l1d_[core]; }
    Cache &l1i(CoreId core) { return *l1i_[core]; }
    Cache &l2(CoreId core) { return *l2_[core]; }
    Cache &l3() { return *l3_; }

    StatSet &stats() { return stats_; }

    void resetStats();

    std::uint64_t llcMisses() const { return statLlcMisses_.value(); }

    /** Mean LLC-miss service latency (core cycles), from the MSHR
     *  allocation to the fill, over the misses filled since
     *  resetStats(). */
    double
    avgFetchLatency() const
    {
        const std::uint64_t n = statFetchesCompleted_.value();
        return n == 0 ? 0.0
                      : static_cast<double>(statFetchLatencyTotal_.value()) /
                            static_cast<double>(n);
    }

  private:
    /** L2 line presence bits: which of the core's L1s hold the line. */
    static constexpr std::uint64_t kInL1d = 1;
    static constexpr std::uint64_t kInL1i = 2;

    struct MshrWaiter
    {
        CoreId core;
        bool isWrite;
        bool isFetch;
        MissDoneFn done;
    };

    /** One outstanding LLC miss: the cycle it went to the backend and
     *  the accesses waiting on it, in arrival order. */
    struct MshrEntry
    {
        Cycle issued = 0;
        std::vector<MshrWaiter> waiters;
    };

    /** A bucket of the MSHR index; entry == kNoMshr when empty. */
    struct MshrBucket
    {
        LineAddr line = 0;
        std::uint32_t entry = kNoMshr;
    };

    static constexpr std::uint32_t kNoMshr = ~0u;

    AccessResult accessInternal(CoreId core, Addr addr, bool isWrite,
                                bool isFetch, const MappingInfo &mapping,
                                MissDoneFn done);

    /** Insert @p line into @p core's L2 (must be absent); the L2 victim
     *  is handled. Returns the new line's slot. */
    Cache::Slot fillL2(CoreId core, LineAddr line);

    /** Insert @p line into @p core's L1d or L1i (must be absent) and
     *  flag it in its L2 copy at @p l2Slot. */
    void fillL1(CoreId core, LineAddr line, Cache::Slot l2Slot,
                bool isWrite, bool isFetch);

    /** L1 -> L2 eviction: clear the victim's presence bit @p bit and
     *  merge its dirty data into the L2 copy. */
    void handleL1Victim(CoreId core, std::uint64_t bit,
                        const Cache::Victim &victim);

    /** L2 -> L3 eviction handling (back-invalidate L1s, dirty to L3). */
    void handleL2Victim(CoreId core, const Cache::Victim &victim);

    /** L3 eviction: back-invalidate every sharer, write back if dirty. */
    void handleL3Victim(const Cache::Victim &victim);

    /** Called by the backend when an LLC miss completes. */
    void fillComplete(LineAddr line, Cycle when);

    /** MSHR index bucket holding @p line, or kNoMshr. */
    std::uint32_t mshrFind(LineAddr line) const;

    /** Allocate a pool entry for @p line and index it. */
    std::uint32_t mshrAllocate(LineAddr line);

    /** Put @p bk in the first empty bucket of its probe run. */
    void mshrPlace(const MshrBucket &bk);

    /** Remove index bucket @p bucket (backward-shift deletion). */
    void mshrUnindex(std::uint32_t bucket);

    /** Home bucket of @p line (Fibonacci hashing). */
    std::uint32_t
    mshrHome(LineAddr line) const
    {
        return static_cast<std::uint32_t>(
            (line * 0x9e3779b97f4a7c15ull) >> mshrShift_);
    }

    const EventQueue &eq_;
    HierarchyParams params_;
    MemBackend &backend_;
    PageJournal *spans_ = nullptr;

    std::vector<std::unique_ptr<Cache>> l1i_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::unique_ptr<Cache> l3_;

    /**
     * MSHR table: a flat open-addressed index (line -> pool entry,
     * linear probing, at most half full, backward-shift deletion) over
     * a pool of entries with a free list. One entry is the only record
     * of one outstanding LLC miss. Reused entries keep their waiter
     * capacity, and the index and pool only grow, so a miss allocates
     * nothing once the table has seen the run's peak of outstanding
     * misses.
     */
    std::vector<MshrBucket> mshrIndex_;
    std::uint32_t mshrShift_ = 64; ///< 64 - log2(index size)
    std::uint32_t mshrCount_ = 0;  ///< indexed entries
    std::vector<MshrEntry> mshrPool_;
    std::vector<std::uint32_t> mshrFree_;

    StatSet stats_;
    Counter &statLlcMisses_;
    Counter &statMshrMerges_;
    Counter &statFetchesCompleted_;
    Counter &statFetchLatencyTotal_;
};

} // namespace banshee

#endif // BANSHEE_CACHE_HIERARCHY_HH
