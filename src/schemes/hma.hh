/**
 * @file
 * Heterogeneous Memory Architecture baseline (Meswani et al.,
 * HPCA'15; paper Section 2.1.2 / Table 1): a purely software-managed
 * scheme. The OS periodically ranks pages by access count, moves the
 * hottest set into in-package DRAM, rewrites PTEs, flushes TLBs and
 * scrubs caches — stalling every core while it does so. Between
 * epochs the mapping is frozen, so the scheme cannot react to
 * fine-grained locality changes; that is exactly the weakness the
 * paper contrasts hardware replacement against.
 */

#ifndef BANSHEE_SCHEMES_HMA_HH
#define BANSHEE_SCHEMES_HMA_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/event_queue.hh"
#include "common/units.hh"
#include "mem/scheme.hh"

namespace banshee {

struct HmaConfig
{
    /** Remap interval (the paper cites 100 ms - 1 s; scaled here). */
    Cycle epoch = usToCycles(2000.0);
    /** Fixed software cost per epoch, charged to every core. */
    Cycle baseCost = usToCycles(50.0);
    /** Additional cost per migrated page, charged to every core. */
    Cycle perPageCost = usToCycles(2.0);
};

class HmaScheme : public DramCacheScheme
{
  public:
    HmaScheme(const SchemeContext &ctx, const HmaConfig &config);

    void demandFetch(LineAddr line, const MappingInfo &mapping,
                     MissDoneFn done) override;
    void demandWriteback(LineAddr line) override;

    std::uint64_t epochsRun() const { return statEpochs_.value(); }

  private:
    struct Resident
    {
        std::uint64_t frameIdx = 0;
        bool dirty = false;
    };

    void armEpoch();
    void runEpoch();

    Addr
    frameAddr(std::uint64_t frameIdx) const
    {
        return frameIdx * kPageBytes;
    }

    HmaConfig config_;
    /** The software remapper's epoch clock; self-rearming. */
    TickEvent epochEvent_{[this] {
        runEpoch();
        armEpoch();
    }};
    std::uint64_t numFrames_;
    std::unordered_map<PageNum, std::uint32_t> counts_;
    std::unordered_map<PageNum, Resident> resident_;
    std::vector<std::uint64_t> freeFrames_;

    Counter &statEpochs_;
};

} // namespace banshee

#endif // BANSHEE_SCHEMES_HMA_HH
