#include "resize/migration_engine.hh"

#include "common/log.hh"
#include "telemetry/span_trace.hh"

namespace banshee {

MigrationEngine::MigrationEngine(EventQueue &eq, ResizeHost &host,
                                 const MigrationParams &params)
    : eq_(eq), host_(host), params_(params),
      statDrained_(stats_.counter("pagesDrained")),
      statDirty_(stats_.counter("dirtyPagesDrained")),
      statSkipped_(stats_.counter("pagesSkipped")),
      statStalls_(stats_.counter("tagBufferStalls"))
{
    sim_assert(params.pagesPerBatch > 0, "migration batch must be > 0");
}

void
MigrationEngine::enqueue(std::uint32_t set, std::uint32_t way, PageNum page)
{
    sim_assert(!active_, "enqueue while a drain is in flight");
    pending_.push_back(Frame{set, way, page});
}

void
MigrationEngine::start(std::function<void(PageNum)> onPageDone,
                       std::function<void()> onDrained)
{
    sim_assert(!active_, "drain already in flight");
    onPageDone_ = std::move(onPageDone);
    onDrained_ = std::move(onDrained);
    active_ = true;
    if (pending_.empty()) {
        // Nothing to move (e.g. a grow into a cold cache).
        active_ = false;
        if (onDrained_)
            onDrained_();
        return;
    }
    armTick(0);
}

void
MigrationEngine::kick()
{
    if (active_)
        armTick(0);
}

void
MigrationEngine::armTick(Cycle delay)
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
MigrationEngine::tick()
{
    if (!active_)
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
            if (onPageDone_)
                onPageDone_(f.page);
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
        if (onPageDone_)
            onPageDone_(f.page);
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
        active_ = false;
        if (onDrained_)
            onDrained_();
        return;
    }
    armTick(params_.batchInterval);
}

} // namespace banshee
