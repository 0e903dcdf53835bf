/**
 * @file
 * Alloy Cache baseline (Qureshi & Loh, MICRO'12) with the BEAR
 * bandwidth optimizations the paper's methodology adds (Section
 * 5.1.1): stochastic cache fills (Alloy-1 fills always, Alloy-0.1
 * with 10 % probability) and a tag-only probe for LLC dirty
 * evictions.
 *
 * Direct-mapped, cacheline granularity. Tags are alloyed with data:
 * every demand access reads one 96 B TAD (64 B data + 32 B tag burst)
 * from in-package DRAM — the Tag traffic Banshee eliminates. Misses
 * pay the probe first and the off-package fetch after it (the paper
 * disables the parallel speculative fetch: it hurts when off-package
 * bandwidth is scarce).
 */

#ifndef BANSHEE_SCHEMES_ALLOY_HH
#define BANSHEE_SCHEMES_ALLOY_HH

#include <cstdint>
#include <vector>

#include "mem/scheme.hh"

namespace banshee {

struct AlloyConfig
{
    /** Probability a miss fills the cache (1.0 or 0.1 in the paper). */
    double fillProbability = 0.1;
};

class AlloyScheme : public DramCacheScheme
{
  public:
    AlloyScheme(const SchemeContext &ctx, const AlloyConfig &config);

    void demandFetch(LineAddr line, const MappingInfo &mapping,
                     MissDoneFn done) override;
    void demandWriteback(LineAddr line) override;

    std::uint64_t numSets() const { return numSets_; }

  private:
    /** Bytes a TAD occupies in the device (64 B data + 8 B tag). */
    static constexpr std::uint32_t kTadStorageBytes = 72;

    /**
     * Direct-mapped set index. The page component is hashed (models
     * OS-randomized frame placement); the line-within-page offset
     * stays sequential so a page's lines land in adjacent TADs and
     * keep their row-buffer locality.
     */
    std::uint64_t
    setOf(LineAddr line) const
    {
        const std::uint64_t page = pageOfLine(line) / ctx_.numMcs;
        const std::uint64_t h = page * 0x9e3779b97f4a7c15ull;
        return ((h >> 32) * kLinesPerPage + lineInPage(line)) % numSets_;
    }

    /** Device address of a TAD (96 B transfer granule). */
    Addr
    tadAddr(std::uint64_t set) const
    {
        return set * kTadStorageBytes;
    }

    /** Fill @p line on a miss; @p tenant pays the fill, the dirty
     *  victim's own tenant its writeback. */
    void maybeFill(LineAddr line, std::uint64_t set, TenantId tenant);

    AlloyConfig config_;
    std::uint64_t numSets_;
    std::vector<LineAddr> tags_;
    std::vector<std::uint8_t> state_; ///< bit0 valid, bit1 dirty

    Counter &statFills_;
    Counter &statFillsSkipped_;
    Counter &statVictimWritebacks_;
};

} // namespace banshee

#endif // BANSHEE_SCHEMES_ALLOY_HH
