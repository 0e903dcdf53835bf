#include "resize/resize_domain.hh"

#include "common/log.hh"

namespace banshee {

ResizeDomain::ResizeDomain(EventQueue &eq, ResizeHost &host,
                           const ResizeConfig &config, std::string name)
    : host_(host), mapper_(config.hash),
      engine_(eq, host, config.migration, name + ".engine"),
      strategy_(config.strategy)
{
    const std::uint32_t numSets = host.numSets();
    sim_assert(numSets % config.hash.numSlices == 0,
               "sets (%u) not divisible into %u slices", numSets,
               config.hash.numSlices);
    setsPerSlice_ = numSets / config.hash.numSlices;

    // Multi-tenant layout: apportion the slices over the quota
    // weights (largest remainder, one-slice floor) and hand them out
    // in contiguous id runs so every domain builds the same layout.
    if (!config.tenantWeights.empty()) {
        partitioned_ = true;
        const auto counts =
            apportionSlices(config.tenantWeights, config.hash.numSlices);
        std::uint32_t next = 0;
        for (std::size_t t = 0; t < counts.size(); ++t) {
            for (std::uint32_t i = 0; i < counts[t]; ++i)
                mapper_.setSliceTenant(next++, static_cast<TenantId>(t));
        }
    }
}

void
ResizeDomain::startDrain(std::function<void()> onDone)
{
    // Queue every resident page whose home set changed (consistent
    // hashing keeps that to ~K/N of residents); the FlushAll baseline
    // drains everything, the way a mod-N indexed cache would have to.
    host_.forEachResident([this](std::uint32_t set, std::uint32_t way,
                                 PageNum page, bool dirty) {
        (void)dirty;
        const std::uint32_t slice =
            mapper_.sliceOf(page, partitioned_ ? host_.pageTenant(page)
                                               : kNoTenant);
        const bool moved = sliceOfSet(set) != slice;
        if (strategy_ == ResizeStrategy::FlushAll || moved) {
            pinned_[page] = set;
            engine_.enqueue(set, way, page);
        }
    });

    // One bump covers the activation/ownership flips the caller just
    // made plus the pin inserts above: no demand access can interleave
    // between the flips and here (all synchronous), so memoized
    // mappings from before the transition are invalidated exactly
    // once. Pin drops during the drain bump individually below.
    ++layoutGeneration_;

    engine_.start(
        [this](PageNum page) {
            pinned_.erase(page);
            ++layoutGeneration_;
        },
        std::move(onDone));
}

void
ResizeDomain::resizeTo(std::uint32_t targetActive,
                       std::function<void()> onDone, TenantId donor,
                       TenantId receiver)
{
    sim_assert(!engine_.active(), "resize while a drain is in flight");
    sim_assert(targetActive >= 1 && targetActive <= mapper_.numSlices(),
               "bad resize target %u", targetActive);
    sim_assert(targetActive != mapper_.activeSlices(),
               "resize to the current size");

    // Flip slice activation first so the post-resize mapping is
    // available while scanning for pages that must move.
    if (targetActive < mapper_.activeSlices()) {
        // Two passes: the donor's slices first (QoS shed), then any
        // active slice, both highest-id first for determinism. In a
        // partitioned layout the unrestricted pass still respects a
        // one-slice floor per tenant: a tenant-blind decision (a
        // schedule step or a PowerCap shed) composed with quotas must
        // not deactivate a tenant's last slice — that would silently
        // void its quota through the sliceOf cross-tenant fallback.
        // The shrink then simply stops short of the target.
        auto deactivate = [&](TenantId owner) {
            for (std::uint32_t s = mapper_.numSlices();
                 s-- > 0 && mapper_.activeSlices() > targetActive;) {
                if (!mapper_.isActive(s))
                    continue;
                if (owner != kNoTenant && mapper_.sliceTenant(s) != owner)
                    continue;
                if (partitioned_ &&
                    mapper_.slicesOwnedBy(mapper_.sliceTenant(s)) <= 1)
                    continue;
                mapper_.setActive(s, false);
            }
        };
        if (donor != kNoTenant)
            deactivate(donor);
        deactivate(kNoTenant);
    } else {
        for (std::uint32_t s = 0;
             s < mapper_.numSlices() && mapper_.activeSlices() < targetActive;
             ++s) {
            if (!mapper_.isActive(s)) {
                mapper_.setActive(s, true);
                if (partitioned_ && receiver != kNoTenant)
                    mapper_.setSliceTenant(s, receiver);
            }
        }
    }

    startDrain(std::move(onDone));
}

std::uint32_t
ResizeDomain::pickDonorSlice(TenantId donor) const
{
    for (std::uint32_t s = mapper_.numSlices(); s-- > 0;) {
        if (mapper_.isActive(s) && mapper_.sliceTenant(s) == donor)
            return s;
    }
    return mapper_.numSlices();
}

void
ResizeDomain::reassignSlice(std::uint32_t slice, TenantId to,
                            std::function<void()> onDone)
{
    sim_assert(!engine_.active(), "reassign while a drain is in flight");
    sim_assert(partitioned_, "reassignment needs a partitioned layout");
    sim_assert(slice < mapper_.numSlices() && mapper_.isActive(slice),
               "reassignment of an invalid slice %u", slice);

    mapper_.setSliceTenant(slice, to);
    startDrain(std::move(onDone));
}

} // namespace banshee
