#include "resize/resize_domain.hh"

#include "common/log.hh"
#include "telemetry/span_trace.hh"

namespace banshee {

ResizeDomain::ResizeDomain(EventQueue &eq, ResizeHost &host,
                           const ConsistentHashMapper &layout,
                           const ResizeConfig &config)
    : eq_(eq), host_(host), layout_(layout), params_(config.migration),
      strategy_(config.strategy),
      partitioned_(!config.tenantWeights.empty()),
      setsPerSlice_(host.numSets() / layout.numSlices()),
      statDrained_(stats_.counter("pagesDrained")),
      statDirty_(stats_.counter("dirtyPagesDrained")),
      statSkipped_(stats_.counter("pagesSkipped")),
      statStalls_(stats_.counter("tagBufferStalls"))
{
    sim_assert(host.numSets() % layout.numSlices() == 0,
               "sets (%u) not divisible into %u slices", host.numSets(),
               layout.numSlices());
    sim_assert(params_.pagesPerBatch > 0, "migration batch must be > 0");
}

void
ResizeDomain::drain(std::function<void()> onDone)
{
    sim_assert(!draining_, "transition while a drain is in flight");

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
            pending_.push_back(Frame{set, way, page});
        }
    });

    // One clear covers the activation/ownership flips the controller
    // just made plus the pin inserts above: no demand access can
    // interleave between the flips and here (all synchronous). Pin
    // drops during the drain clear the memo again.
    memo_.fill(MemoEntry{});

    if (pending_.empty()) {
        // Nothing to move (e.g. a grow into a cold cache).
        onDone();
        return;
    }
    onDone_ = std::move(onDone);
    draining_ = true;
    armTick(0);
}

void
ResizeDomain::kick()
{
    if (draining_)
        armTick(0);
}

void
ResizeDomain::armTick(Cycle delay)
{
    // An earlier (or equal) tick is already pending; a *later* one is
    // superseded so a kick() can cut a stall's back-off short — the
    // re-arm drops the stale queue entry in place.
    const Cycle when = eq_.now() + delay;
    if ((batchLat_ || spans_) && batchStart_ == kNoCycle)
        batchStart_ = eq_.now();
    if (tickEvent_.armed() && tickEvent_.when() <= when)
        return;
    eq_.schedule(tickEvent_, when);
}

void
ResizeDomain::tick()
{
    if (!draining_)
        return;

    for (std::uint32_t n = 0; n < params_.pagesPerBatch &&
                              !pending_.empty();
         ++n) {
        const Frame f = pending_.front();

        if (!host_.residentAt(f.set, f.way, f.page)) {
            // Normal replacement already evicted (and, if dirty,
            // wrote back) this frame while it sat in the backlog.
            pending_.pop_front();
            ++statSkipped_;
            unpin(f.page);
            continue;
        }

        if (!host_.canEvictFrame(f.page)) {
            // Tag buffer saturated with remaps: ask the OS to run the
            // batch PTE update and retry after it drains (the resize
            // controller also kicks us on update completion).
            ++statStalls_;
            host_.requestMappingCommit();
            armTick(params_.retryInterval);
            return;
        }

        pending_.pop_front();
        if (host_.evictFrame(f.set, f.way))
            ++statDirty_;
        ++statDrained_;
        unpin(f.page);
    }

    // A full batch made it through (stall returns above keep the batch
    // open): arm-to-now includes any retry back-offs it suffered.
    if (batchStart_ != kNoCycle) {
        if (batchLat_)
            batchLat_->record(eq_.now() - batchStart_);
        if (spans_) {
            spans_->controlComplete(
                spanTrack_, "drain_batch", batchStart_, eq_.now(),
                {{"backlog",
                  static_cast<std::uint64_t>(pending_.size())}});
        }
        batchStart_ = kNoCycle;
    }

    if (pending_.empty()) {
        draining_ = false;
        onDone_();
        return;
    }
    armTick(params_.batchInterval);
}

} // namespace banshee
