/**
 * @file
 * Background drain of remapped pages during a cache resize.
 *
 * Instead of a stop-the-world flush, the engine walks the list of
 * frames whose slice assignment changed and evicts them in small
 * rate-limited batches on the event queue, so migration writebacks
 * interleave with demand traffic in the DRAM controllers' queues
 * exactly like any other requests. When the Tag Buffer cannot accept
 * further remap entries the engine requests the OS batch PTE-update
 * (the same lazy machinery replacements use) and backs off; the
 * resize controller kicks it again the moment the update completes.
 */

#ifndef BANSHEE_RESIZE_MIGRATION_ENGINE_HH
#define BANSHEE_RESIZE_MIGRATION_ENGINE_HH

#include <cstdint>
#include <deque>
#include <functional>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "resize/resize_config.hh"
#include "resize/resize_host.hh"
#include "telemetry/histogram.hh"

namespace banshee {

class PageJournal; // telemetry/span_trace.hh

class MigrationEngine
{
  public:
    MigrationEngine(EventQueue &eq, ResizeHost &host,
                    const MigrationParams &params);

    /** Queue one frame for draining (before start()). */
    void enqueue(std::uint32_t set, std::uint32_t way, PageNum page);

    /**
     * Begin draining the queued frames; @p onDrained fires (possibly
     * immediately) once the backlog is empty. @p onPageDone fires for
     * every queued page as it is drained or skipped.
     */
    void start(std::function<void(PageNum)> onPageDone,
               std::function<void()> onDrained);

    /** Re-arm a stalled engine (e.g. after a PTE update freed tag
     *  buffer space). No-op when idle or already armed. */
    void kick();

    bool active() const { return active_; }

    std::uint64_t pagesDrained() const { return statDrained_.value(); }
    std::uint64_t dirtyPagesDrained() const { return statDirty_.value(); }
    std::uint64_t pagesSkipped() const { return statSkipped_.value(); }
    std::uint64_t tagBufferStalls() const { return statStalls_.value(); }

    /** Attach (or detach with nullptr) a drain-batch latency
     *  distribution: arm-to-completion time of each batch, so tag
     *  buffer stalls show up as a stretched tail. */
    void setTelemetry(Histogram *batchLat) { batchLat_ = batchLat; }

    /** Attach span tracing: each drain batch becomes a complete span
     *  on control track @p track. Null = off. */
    void
    setSpanTrace(PageJournal *spans, std::uint32_t track)
    {
        spans_ = spans;
        spanTrack_ = track;
    }

    StatSet &stats() { return stats_; }

  private:
    struct Frame
    {
        std::uint32_t set;
        std::uint32_t way;
        PageNum page;
    };

    /** Drain up to pagesPerBatch frames, then re-arm or finish. */
    void tick();

    void armTick(Cycle delay);

    EventQueue &eq_;
    ResizeHost &host_;
    MigrationParams params_;
    std::deque<Frame> pending_;
    std::function<void(PageNum)> onPageDone_;
    std::function<void()> onDrained_;
    bool active_ = false;
    /** The engine's one drain-tick event; armTick() re-arms it. */
    TickEvent tickEvent_{[this] { tick(); }};
    Histogram *batchLat_ = nullptr;
    PageJournal *spans_ = nullptr;
    std::uint32_t spanTrack_ = 0;
    Cycle batchStart_ = kNoCycle; ///< arming cycle of the current batch

    StatSet stats_;
    Counter &statDrained_;
    Counter &statDirty_;
    Counter &statSkipped_;
    Counter &statStalls_;
};

} // namespace banshee

#endif // BANSHEE_RESIZE_MIGRATION_ENGINE_HH
