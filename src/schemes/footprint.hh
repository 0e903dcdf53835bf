/**
 * @file
 * Footprint machinery shared by the Unison and TDC baselines.
 *
 * Both baselines replace on every miss and rely on a footprint
 * predictor to avoid fetching whole pages (paper Section 5.1.1
 * models the predictor as perfect: traffic is charged as the average
 * number of blocks touched per page fill, managed at 4-line
 * granularity, while residency-wide hits are assumed). We track the
 * actually-read and actually-dirtied lines of each cached page and
 * feed an EWMA of the read-group count at eviction back into the
 * fill charge — a self-calibrating, single-pass equivalent of the
 * paper's profile-then-charge methodology.
 */

#ifndef BANSHEE_SCHEMES_FOOTPRINT_HH
#define BANSHEE_SCHEMES_FOOTPRINT_HH

#include <cstdint>

#include "common/types.hh"

namespace banshee {

/** Lines per footprint group (paper: 4-line granularity). */
constexpr std::uint32_t kFootprintGroupLines = 4;

/** Read/dirty line masks for one page residency. */
struct PageResidency
{
    std::uint64_t readLines = 0;
    std::uint64_t dirty = 0;

    void
    touch(std::uint32_t lineIdx, bool isWrite)
    {
        if (isWrite)
            dirty |= 1ull << lineIdx;
        else
            readLines |= 1ull << lineIdx;
    }

    /**
     * Groups with at least one *read* line — the groups a footprint
     * fill actually has to fetch. Write-only lines are produced, not
     * consumed, so the predictor does not fetch them (this is what
     * keeps replace-on-every-miss schemes bandwidth-neutral on
     * write-streaming codes like lbm).
     */
    std::uint32_t
    readGroups() const
    {
        return maskGroups(readLines);
    }

    std::uint32_t
    dirtyGroups() const
    {
        return maskGroups(dirty);
    }

    static std::uint32_t
    maskGroups(std::uint64_t mask)
    {
        std::uint32_t groups = 0;
        for (std::uint32_t g = 0; g < kLinesPerPage / kFootprintGroupLines;
             ++g) {
            if (mask & (0xFull << (g * kFootprintGroupLines)))
                ++groups;
        }
        return groups;
    }
};

/** EWMA of per-residency footprints, used as the fill charge. */
class FootprintPredictor
{
  public:
    explicit FootprintPredictor(double initGroups = 8.0, double alpha = 0.1)
        : ewmaGroups_(initGroups), alpha_(alpha)
    {
    }

    /** Feed the footprint observed when a page is evicted. */
    void
    observe(std::uint32_t groups)
    {
        ewmaGroups_ = alpha_ * groups + (1.0 - alpha_) * ewmaGroups_;
    }

    /** Predicted fill size in lines (always at least one group). */
    std::uint32_t
    predictLines() const
    {
        std::uint32_t groups =
            static_cast<std::uint32_t>(ewmaGroups_ + 0.5);
        const std::uint32_t maxGroups =
            kLinesPerPage / kFootprintGroupLines;
        if (groups < 1)
            groups = 1;
        if (groups > maxGroups)
            groups = maxGroups;
        return groups * kFootprintGroupLines;
    }

  private:
    double ewmaGroups_;
    double alpha_;
};

} // namespace banshee

#endif // BANSHEE_SCHEMES_FOOTPRINT_HH
