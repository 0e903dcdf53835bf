/**
 * @file
 * The Banshee DRAM cache scheme (paper Sections 3 and 4).
 *
 * Demand path: the request's PTE/TLB mapping bits are overridden by a
 * Tag Buffer hit; a hit moves exactly 64 B from in-package DRAM, a
 * miss moves exactly 64 B from off-package DRAM — no tag probe, no
 * speculative load (Table 1's "Traffic 64B / 0B" row). The FBR
 * directory's tags are the only copy of the hardware mapping: on a
 * Tag Buffer miss the model reads the page's tags (the value the
 * carried bits hold under lazy coherence) and stores a clean Tag
 * Buffer copy.
 *
 * Lazy coherence (Section 3.4): a PTE may lag the tags only while the
 * page has a remap entry in the Tag Buffer. Every run checks this on
 * every Tag Buffer miss, on the fetch and writeback paths alike.
 *
 * Replacement: frequency-based with sampled counter maintenance
 * (Algorithm 1). An access is sampled with probability
 * recent_miss_rate x sampling_coefficient; only then is the 32 B set
 * metadata read and written. A candidate replaces the coldest cached
 * way only when its counter leads by `threshold =
 * lines_per_page x coefficient / 2`, which bounds replacement churn.
 * Both the incoming and outgoing page enter the Tag Buffer as
 * remapped entries; when the buffer passes its fill threshold the OS
 * routine batch-commits PTEs and shoots down TLBs (lazy coherence).
 *
 * Ablations used by Figure 7 are selectable: LruEveryMiss (Unison-
 * style management without footprints) and FbrNoSample (CHOP-style
 * per-access counters).
 *
 * Large (2 MB) pages (Section 4.3) reuse the same machinery with
 * pageBits = 21, a smaller sampling coefficient and a proportionally
 * larger threshold.
 */

#ifndef BANSHEE_CORE_BANSHEE_HH
#define BANSHEE_CORE_BANSHEE_HH

#include <cstdint>

#include "common/stats.hh"
#include "core/fbr_directory.hh"
#include "core/tag_buffer.hh"
#include "mem/scheme.hh"
#include "resize/resize_domain.hh"
#include "resize/resize_host.hh"

namespace banshee {

struct BansheeConfig
{
    enum class Policy : std::uint8_t
    {
        Fbr,          ///< the real design: sampled FBR
        FbrNoSample,  ///< ablation: counters on every access
        LruEveryMiss  ///< ablation: LRU + replace on every miss
    };

    std::uint32_t ways = 4;
    std::uint32_t numCandidates = 5;
    std::uint32_t counterBits = 5;
    double samplingCoeff = 0.1;
    /** < 0 selects the paper's default lines*coeff/2. */
    double replaceThreshold = -1.0;
    std::uint32_t pageBits = kPageBits; ///< 12 = 4 KB, 21 = 2 MB
    TagBufferParams tagBuffer;
    Policy policy = Policy::Fbr;
};

class BansheeScheme : public DramCacheScheme, public ResizeHost
{
  public:
    BansheeScheme(const SchemeContext &ctx, const BansheeConfig &config);

    void demandFetch(LineAddr line, const MappingInfo &mapping,
                     MissDoneFn done) override;
    void demandWriteback(LineAddr line) override;

    /** Banshee supports dynamic resizing (lazy-remap machinery). */
    ResizeHost *resizeHost() override { return this; }

    // ResizeHost interface (see resize/resize_host.hh). The resize
    // subsystem drains frames through these; traffic is charged as
    // TrafficCat::Migration and the un-mappings ride the tag buffer's
    // lazy PTE-commit path like any replacement victim's.
    std::uint32_t numSets() const override { return dir_.numSets(); }
    void forEachResident(
        const std::function<void(std::uint32_t, std::uint32_t, PageNum,
                                 bool)> &fn) override;
    bool residentAt(std::uint32_t setIdx, std::uint32_t way,
                    PageNum page) override;
    bool canEvictFrame(PageNum page) const override;
    bool evictFrame(std::uint32_t setIdx, std::uint32_t way) override;
    void requestMappingCommit() override;
    void
    attachResizeDomain(ResizeDomain *domain) override
    {
        resizeDomain_ = domain;
    }
    std::uint64_t
    demandAccessesOf(TenantId t) const override
    {
        return tenantAccesses(t);
    }
    std::uint64_t
    demandMissesOf(TenantId t) const override
    {
        return tenantMisses(t);
    }
    /** Owner of a scheme-granularity page (slice placement + stats). */
    TenantId
    pageTenant(PageNum page) const override
    {
        return tenantOfAddr(pageAddr(page));
    }
    void verifyResidencyConsistent() override;

    /** Effective replacement threshold (counter lead required). */
    double threshold() const { return threshold_; }

    /** Current adaptive sampling rate = miss-rate EWMA x coefficient. */
    double currentSampleRate() const;

    TagBuffer &tagBuffer() { return tagBuffer_; }

    std::uint64_t pagesInserted() const { return statInserts_.value(); }
    std::uint64_t
    replacementsBlocked() const
    {
        return statReplacementsBlocked_.value();
    }

    /** The Tag Buffer's hit/miss counters restart with the scheme's. */
    void
    resetStats() override
    {
        DramCacheScheme::resetStats();
        tagBuffer_.resetStats();
    }

    /**
     * Set index. The page number is mixed with a Fibonacci hash
     * before taking the modulus: this models the effectively random
     * virtual-to-physical frame placement a real OS produces.
     * Without it, identity-mapped private heaps (which start at large
     * power-of-two boundaries) would alias every core onto the same
     * few sets — an artifact no real system exhibits.
     *
     * With resizing enabled the mixed hash becomes the offset within
     * a consistent-hash-chosen slice instead of a modulus over all
     * sets (see ResizeDomain::setOf), so capacity changes remap only
     * the resized fraction of pages.
     */
    std::uint32_t
    setOf(PageNum page) const
    {
        const std::uint64_t h =
            (page / ctx_.numMcs) * 0x9e3779b97f4a7c15ull;
        if (resizeDomain_)
            return resizeDomain_->setOf(page, h >> 32);
        return static_cast<std::uint32_t>((h >> 32) % dir_.numSets());
    }

  private:
    /** Scheme-granularity page number of a 64 B line. */
    PageNum
    pageOfLine64(LineAddr line) const
    {
        return lineToAddr(line) >> config_.pageBits;
    }

    /** Device address of a page frame (set, way) on this channel. */
    Addr
    frameAddr(std::uint32_t setIdx, std::uint32_t way) const
    {
        return (static_cast<Addr>(setIdx) * config_.ways + way)
               << config_.pageBits;
    }

    /** Device address of a set's 32 B metadata in the tag rows. */
    Addr
    metaAddr(std::uint32_t setIdx) const
    {
        return metaBase_ + static_cast<Addr>(setIdx) * 32;
    }

    /** Off-package byte address of a page. */
    Addr
    pageAddr(PageNum page) const
    {
        return static_cast<Addr>(page) << config_.pageBits;
    }

    /**
     * Resolve the authoritative mapping: the page's Tag Buffer entry,
     * else its tags in set @p setIdx, of which a clean copy enters the
     * Tag Buffer. A Tag Buffer miss checks lazy coherence: the PTE
     * must equal the tags, and so must the bits the request carried
     * (4 KB pages only: with 2 MB pages the 4 KB-grained TLB's bits
     * name a different page). @p tbHit reports whether the Tag Buffer
     * answered — lookup() touches LRU state, so callers must not
     * probe twice.
     */
    PageMapping resolveMapping(PageNum page, std::uint32_t setIdx,
                               const MappingInfo &carried, bool &tbHit);

    /** Algorithm 1: sampling, counter maintenance, replacement. */
    void fbrSampleAndReplace(PageNum page, std::uint32_t setIdx, bool hit,
                             std::uint8_t hitWay, TenantId tenant);

    /** LRU ablation: touch on access, replace on every miss. */
    void lruTouchAndReplace(PageNum page, std::uint32_t setIdx, bool hit,
                            std::uint8_t hitWay, TenantId tenant);

    /** Move @p page into (set, way); handles victim + tag buffer. */
    void executeReplacement(PageNum page, std::uint32_t setIdx,
                            std::uint32_t way, TenantId tenant);

    /** Charge a 32 B metadata read + write pair. */
    void chargeMetadataRw(std::uint32_t setIdx, TrafficCat cat,
                          TenantId tenant,
                          PageNum spanPage = kNoSpanPage);

    BansheeConfig config_;
    FbrDirectory dir_;
    TagBuffer tagBuffer_;
    ResizeDomain *resizeDomain_ = nullptr;
    double threshold_;
    EwmaRatio missRate_;
    std::uint64_t lruStampCounter_ = 1;
    std::uint32_t pageBytes_;
    Addr metaBase_;

    Counter &statInserts_;
    Counter &statReplacementsBlocked_;
    Counter &statCounterOverflows_;
};

} // namespace banshee

#endif // BANSHEE_CORE_BANSHEE_HH
