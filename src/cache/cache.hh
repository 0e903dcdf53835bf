/**
 * @file
 * Generic set-associative SRAM cache used for L1I/L1D/L2/L3.
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
 * A set's tags are stored contiguously, apart from its LRU stamps,
 * metadata and dirty bits, so a scan touches only the tag array (a
 * 16-way set's tags fill two 64 B host lines).
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
    void setDirty(Slot slot) { dirty_[slot.index()] = 1; }

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t ways() const { return ways_; }

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

    std::uint64_t hits() const { return statHits_.value(); }
    std::uint64_t misses() const { return statMisses_.value(); }

  private:
    /** Tag of an empty way (no line address reaches it). */
    static constexpr LineAddr kNoLine = ~0ull;

    std::uint32_t setBase(LineAddr line) const;
    Slot find(LineAddr line) const;

    std::uint32_t numSets_;
    std::uint32_t ways_;
    /** Per way, indexed by set * ways + way. */
    std::vector<LineAddr> tags_;
    std::vector<std::uint64_t> stamps_; ///< LRU ordering stamps
    std::vector<std::uint64_t> meta_;
    std::vector<std::uint8_t> dirty_;
    std::uint64_t stampCounter_ = 1;

    StatSet stats_;
    Counter &statHits_;
    Counter &statMisses_;
    Counter &statEvictions_;
    Counter &statDirtyEvictions_;
};

} // namespace banshee

#endif // BANSHEE_CACHE_CACHE_HH
