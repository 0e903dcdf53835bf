/**
 * @file
 * Generic set-associative SRAM cache used for L1I/L1D/L2/L3 and the
 * TLBs.
 *
 * The hierarchy is functional-immediate: lookups update state at call
 * time and latencies are accounted by the caller. Only DRAM is
 * event-driven.
 */

#ifndef BANSHEE_CACHE_CACHE_HH
#define BANSHEE_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace banshee {

struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = kLineBytes;
};

/**
 * A set-associative LRU cache of line addresses. Lines carry a dirty bit
 * and a 64-bit user metadata word (the hierarchy keeps sharer masks,
 * L1-presence bits and L2 slots there).
 *
 * Exactly four methods scan a set: lookup(), contains(), insert() and
 * invalidate(). Each scans it at most once. The first three return a
 * Slot, a handle naming the way that holds the line; the slot
 * accessors (holds(), meta(), setMeta(), setDirty()) then read or
 * update that way directly, without scanning. A slot stays valid until
 * its line is evicted or invalidated.
 *
 * A set's tags are stored contiguously, apart from its metadata words
 * and its one replacement record, so a scan touches only the tag
 * array (a 16-way set's tags fill two 64 B host lines). The record
 * holds the set's exact LRU order, one 4-bit way index per recency
 * rank packed in one word, and its dirty ways as a bit mask: a hit
 * rewrites that word, and an eviction takes the way at its LRU end.
 * Hence at most kMaxWays ways, a power of two.
 */
class Cache
{
  public:
    struct Victim
    {
        bool valid = false;
        bool dirty = false;
        LineAddr line = 0;
        std::uint64_t meta = 0;
    };

    /** A line's position (set x way); false when the line is absent. */
    class Slot
    {
      public:
        Slot() = default;
        /** Rebuild a handle from index() (e.g. one kept in metadata). */
        explicit Slot(std::uint32_t index) : index_(index) {}

        explicit operator bool() const { return index_ != kAbsent; }
        std::uint32_t index() const { return index_; }

      private:
        static constexpr std::uint32_t kAbsent = ~0u;
        std::uint32_t index_ = kAbsent;
    };

    /** What insert() did: the slot now holding the line, and the line
     *  it evicted (valid=false if a way was free). */
    struct Placement
    {
        Slot slot;
        Victim victim;
    };

    /** Most ways a set's LRU order word can rank (4 bits each). */
    static constexpr std::uint32_t kMaxWays = 16;

    explicit Cache(const CacheParams &params);

    /**
     * Look up @p line. On a hit, updates replacement state and, if
     * @p isWrite, the dirty bit.
     * @return the line's slot on hit.
     */
    Slot lookup(LineAddr line, bool isWrite);

    /** Hit check without any state change. */
    Slot contains(LineAddr line) const;

    /** Insert @p line (must not be present; always checked). */
    Placement insert(LineAddr line, bool dirty, std::uint64_t meta = 0);

    /**
     * Remove @p line if present.
     * @return the removed entry (valid=false if it was absent).
     */
    Victim invalidate(LineAddr line);

    /** Remove every line (e.g. a TLB shootdown). */
    void invalidateAll();

    /** True if @p slot names a way that holds @p line. No scan. */
    bool
    holds(Slot slot, LineAddr line) const
    {
        return slot.index() < tags_.size() && tags_[slot.index()] == line;
    }

    /** A resident line's metadata word. */
    std::uint64_t meta(Slot slot) const { return meta_[slot.index()]; }

    /** Update a resident line's metadata word. */
    void setMeta(Slot slot, std::uint64_t meta) { meta_[slot.index()] = meta; }

    /** Mark a resident line dirty. */
    void
    setDirty(Slot slot)
    {
        sets_[slot.index() >> waysLog2_].dirty |= wayBit(slot.index());
    }

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t ways() const { return ways_; }

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

    std::uint64_t hits() const { return statHits_.value(); }
    std::uint64_t misses() const { return statMisses_.value(); }

  private:
    /** Tag of an empty way (no line address reaches it). */
    static constexpr LineAddr kNoLine = ~0ull;

    /** One set's replacement state. */
    struct SetState
    {
        /** Way index per recency rank, 4 bits each; rank 0 (the low
         *  nibble) is the most recently used, rank ways-1 the LRU. */
        std::uint64_t order = 0;
        std::uint16_t dirty = 0; ///< bit w: way w is dirty
    };

    std::uint32_t setIndex(LineAddr line) const;
    Slot find(LineAddr line) const;

    /** The dirty-mask bit of the way @p index names. */
    std::uint16_t
    wayBit(std::uint32_t index) const
    {
        return static_cast<std::uint16_t>(1u << (index & (ways_ - 1)));
    }

    std::uint32_t numSets_;
    std::uint32_t ways_;
    std::uint32_t waysLog2_;
    /** Per way, indexed by set * ways + way. */
    std::vector<LineAddr> tags_;
    std::vector<std::uint64_t> meta_;
    /** Per set. */
    std::vector<SetState> sets_;

    StatSet stats_;
    Counter &statHits_;
    Counter &statMisses_;
    Counter &statEvictions_;
    Counter &statDirtyEvictions_;
};

} // namespace banshee

#endif // BANSHEE_CACHE_CACHE_HH
