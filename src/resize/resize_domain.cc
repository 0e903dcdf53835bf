#include "resize/resize_domain.hh"

#include "common/log.hh"

namespace banshee {

ResizeDomain::ResizeDomain(EventQueue &eq, ResizeHost &host,
                           const ConsistentHashMapper &layout,
                           const ResizeConfig &config)
    : host_(host), layout_(layout), engine_(eq, host, config.migration),
      strategy_(config.strategy),
      partitioned_(!config.tenantWeights.empty()),
      setsPerSlice_(host.numSets() / layout.numSlices())
{
    sim_assert(host.numSets() % layout.numSlices() == 0,
               "sets (%u) not divisible into %u slices", host.numSets(),
               layout.numSlices());
}

void
ResizeDomain::drain(std::function<void()> onDone)
{
    sim_assert(!engine_.active(), "transition while a drain is in flight");

    // Queue every resident page whose home set changed (consistent
    // hashing keeps that to ~K/N of residents); the FlushAll baseline
    // drains everything, the way a mod-N indexed cache would have to.
    host_.forEachResident([this](std::uint32_t set, std::uint32_t way,
                                 PageNum page, bool dirty) {
        (void)dirty;
        const std::uint32_t slice =
            layout_.sliceOf(page, partitioned_ ? host_.pageTenant(page)
                                               : kNoTenant);
        const bool moved = sliceOfSet(set) != slice;
        if (strategy_ == ResizeStrategy::FlushAll || moved) {
            pinned_[page] = set;
            engine_.enqueue(set, way, page);
        }
    });

    // One bump covers the activation/ownership flips the controller
    // just made plus the pin inserts above: no demand access can
    // interleave between the flips and here (all synchronous), so
    // memoized mappings from before the transition are invalidated
    // exactly once. Pin drops during the drain bump individually
    // below.
    ++layoutGeneration_;

    engine_.start(
        [this](PageNum page) {
            pinned_.erase(page);
            ++layoutGeneration_;
        },
        std::move(onDone));
}

} // namespace banshee
