/**
 * @file
 * Unison Cache baseline (Jevdjic et al., MICRO'14) as modeled by the
 * paper (Section 5.1.1): page granularity, way-associative with LRU,
 * perfect way prediction, perfect footprint prediction charged at
 * 4-line granularity, replacement on every miss.
 *
 * Demand hits read tags + the predicted way's data (96 B) and write
 * the LRU bits back (32 B) — at least 128 B per hit (Table 1).
 * Misses pay the speculative read, then the off-package fetch, then a
 * full replacement: footprint-sized fill plus a dirty victim's
 * footprint-sized writeback.
 */

#ifndef BANSHEE_SCHEMES_UNISON_HH
#define BANSHEE_SCHEMES_UNISON_HH

#include <cstdint>
#include <vector>

#include "mem/scheme.hh"
#include "schemes/footprint.hh"

namespace banshee {

class UnisonScheme : public DramCacheScheme
{
  public:
    explicit UnisonScheme(const SchemeContext &ctx);

    void demandFetch(LineAddr line, const MappingInfo &mapping,
                     MissDoneFn done) override;
    void demandWriteback(LineAddr line) override;

  private:
    /** Associativity of each set. */
    static constexpr std::uint32_t kWays = 4;

    struct WayEntry
    {
        PageNum page = 0;
        PageResidency residency;
        std::uint64_t lruStamp = 0;
        bool valid = false;
    };

    /** Hashed set index (models OS-randomized frame placement). */
    std::uint32_t
    setOf(PageNum page) const
    {
        const std::uint64_t h =
            (page / ctx_.numMcs) * 0x9e3779b97f4a7c15ull;
        return static_cast<std::uint32_t>((h >> 32) % numSets_);
    }

    WayEntry *findWay(std::uint32_t setIdx, PageNum page);

    Addr
    frameAddr(std::uint32_t setIdx, std::uint32_t way) const
    {
        return (static_cast<Addr>(setIdx) * kWays + way) * kPageBytes;
    }

    Addr
    tagRowAddr(std::uint32_t setIdx) const
    {
        return metaBase_ + static_cast<Addr>(setIdx) * 32;
    }

    /** Replacement on a miss: evict LRU way, fill the footprint.
     *  @p tenant pays the fill, the victim's own tenant its writeback. */
    void replaceOnMiss(PageNum page, std::uint32_t setIdx,
                       std::uint32_t lineIdx, TenantId tenant);

    std::uint32_t numSets_;
    Addr metaBase_;
    std::vector<WayEntry> ways_;
    std::uint64_t lruCounter_ = 1;
    FootprintPredictor footprint_;

    Counter &statReplacements_;
};

} // namespace banshee

#endif // BANSHEE_SCHEMES_UNISON_HH
