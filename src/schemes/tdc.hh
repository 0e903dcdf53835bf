/**
 * @file
 * Tagless DRAM Cache baseline (Lee et al., ISCA'15) as idealized by
 * the paper (Section 5.1.1): PTE/TLB-tracked mapping with *zero-cost*
 * TLB coherence (the directory-based coherence traffic, address
 * consistency scrubbing and page aliasing side effects are all waived
 * in TDC's favor), fully-associative page cache, FIFO replacement on
 * every miss, perfect footprint prediction.
 *
 * Hits move exactly 64 B; misses move 64 B from off-package plus the
 * footprint-sized replacement — the remaining bandwidth weakness
 * Banshee's frequency-based policy removes.
 */

#ifndef BANSHEE_SCHEMES_TDC_HH
#define BANSHEE_SCHEMES_TDC_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/scheme.hh"
#include "schemes/footprint.hh"

namespace banshee {

class TdcScheme : public DramCacheScheme
{
  public:
    explicit TdcScheme(const SchemeContext &ctx);

    void demandFetch(LineAddr line, const MappingInfo &mapping,
                     MissDoneFn done) override;
    void demandWriteback(LineAddr line) override;

    std::uint64_t residentPages() const { return frameOf_.size(); }

  private:
    struct Frame
    {
        std::uint64_t frameIdx = 0;
        PageResidency residency;
    };

    Addr
    frameAddr(std::uint64_t frameIdx) const
    {
        return frameIdx * kPageBytes;
    }

    /** FIFO replacement: evict the page in frame @p frameIdx; its
     *  own tenant pays the writeback. */
    void evict(std::uint64_t frameIdx);

    /** Fill @p page's footprint on a miss, paid by @p tenant. */
    void fill(PageNum page, std::uint32_t lineIdx, TenantId tenant);

    std::uint64_t numFrames_;
    std::unordered_map<PageNum, Frame> frameOf_;
    /** Frames fill in order, so the k-th fill takes frame k mod N and
     *  evicts the oldest page: FIFO over a ring of frames. */
    std::vector<PageNum> framePage_;
    std::uint64_t fills_ = 0;
    FootprintPredictor footprint_;
};

} // namespace banshee

#endif // BANSHEE_SCHEMES_TDC_HH
