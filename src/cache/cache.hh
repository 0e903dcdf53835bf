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
 * and a 64-bit user metadata word (the shared L3 stores a sharer
 * bitmask there).
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

    explicit Cache(const CacheParams &params);

    /**
     * Look up @p line. On a hit, updates replacement state and, if
     * @p isWrite, the dirty bit.
     * @return true on hit.
     */
    bool lookup(LineAddr line, bool isWrite);

    /** Hit check without any state change. */
    bool contains(LineAddr line) const;

    /**
     * Insert @p line (must not be present). Returns the evicted
     * victim, if any.
     */
    Victim insert(LineAddr line, bool dirty, std::uint64_t meta = 0);

    /**
     * Remove @p line if present.
     * @return the removed entry (valid=false if it was absent).
     */
    Victim invalidate(LineAddr line);

    /** Set the dirty bit of a resident line (asserts presence). */
    void setDirty(LineAddr line);

    /** Read a resident line's metadata word (asserts presence). */
    std::uint64_t meta(LineAddr line) const;

    /** Update a resident line's metadata word (asserts presence). */
    void setMeta(LineAddr line, std::uint64_t meta);

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t ways() const { return ways_; }

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

    std::uint64_t hits() const { return statHits_.value(); }
    std::uint64_t misses() const { return statMisses_.value(); }

  private:
    struct Line
    {
        LineAddr tag = 0;
        std::uint64_t stamp = 0; ///< LRU ordering stamp
        std::uint64_t meta = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::uint32_t setIndex(LineAddr line) const;
    Line *findLine(LineAddr line);
    const Line *findLine(LineAddr line) const;

    std::uint32_t numSets_;
    std::uint32_t ways_;
    std::vector<Line> lines_;
    std::uint64_t stampCounter_ = 1;

    StatSet stats_;
    Counter &statHits_;
    Counter &statMisses_;
    Counter &statEvictions_;
    Counter &statDirtyEvictions_;
};

} // namespace banshee

#endif // BANSHEE_CACHE_CACHE_HH
