/**
 * @file
 * BATMAN-style bandwidth balancing (paper Section 5.4.2).
 *
 * BATMAN observes the split of traffic between in- and off-package
 * DRAM and, when the in-package share exceeds a target (80 %), steers
 * part of the address space away from the cache so both memories'
 * bandwidth is used. We implement the controller as a feedback loop
 * over a hashed bypass fraction: schemes consult shouldBypass(page)
 * before caching decisions; already-cached bypassed pages keep
 * hitting and age out naturally.
 */

#ifndef BANSHEE_SCHEMES_BATMAN_HH
#define BANSHEE_SCHEMES_BATMAN_HH

#include <cstdint>

#include "common/event_queue.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "dram/dram_model.hh"

namespace banshee {

struct BatmanParams
{
    Cycle epoch = usToCycles(50.0);
};

class BatmanController
{
  public:
    BatmanController(EventQueue &eq, const DramModel *inPkg,
                     const DramModel *offPkg,
                     BatmanParams params = BatmanParams{})
        : eq_(eq), inPkg_(inPkg), offPkg_(offPkg), params_(params)
    {
        armEpoch();
    }

    /** Pages hashing below the bypass fraction skip the cache. */
    bool
    shouldBypass(PageNum page) const
    {
        if (bypassFraction_ <= 0.0)
            return false;
        const std::uint64_t h = page * 0x9e3779b97f4a7c15ull;
        return static_cast<double>(h >> 11) * 0x1.0p-53 < bypassFraction_;
    }

    double bypassFraction() const { return bypassFraction_; }

  private:
    /** In-package share of the traffic the feedback loop steers to. */
    static constexpr double kTargetInPkgFraction = 0.8;
    /** Bypass-fraction change per epoch. */
    static constexpr double kStep = 0.05;
    /** Upper bound of the bypass fraction. */
    static constexpr double kMaxBypass = 0.95;

    void
    armEpoch()
    {
        eq_.scheduleAfter(epochEvent_, params_.epoch);
    }

    void
    tick()
    {
        const std::uint64_t in = inPkg_ ? inPkg_->traffic().totalBytes() : 0;
        const std::uint64_t off =
            offPkg_ ? offPkg_->traffic().totalBytes() : 0;
        const std::uint64_t dIn = in - lastIn_;
        const std::uint64_t dOff = off - lastOff_;
        lastIn_ = in;
        lastOff_ = off;
        if (dIn + dOff == 0)
            return;
        const double frac =
            static_cast<double>(dIn) / static_cast<double>(dIn + dOff);
        if (frac > kTargetInPkgFraction)
            bypassFraction_ += kStep;
        else
            bypassFraction_ -= kStep;
        if (bypassFraction_ < 0.0)
            bypassFraction_ = 0.0;
        if (bypassFraction_ > kMaxBypass)
            bypassFraction_ = kMaxBypass;
    }

    EventQueue &eq_;
    const DramModel *inPkg_;
    const DramModel *offPkg_;
    BatmanParams params_;
    /** The bypass controller's epoch clock; self-rearming. */
    TickEvent epochEvent_{[this] {
        tick();
        armEpoch();
    }};
    double bypassFraction_ = 0.0;
    std::uint64_t lastIn_ = 0;
    std::uint64_t lastOff_ = 0;
};

} // namespace banshee

#endif // BANSHEE_SCHEMES_BATMAN_HH
