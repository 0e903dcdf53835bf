/**
 * @file
 * Per-memory-controller resize state: the set mapping over the shared
 * slice layout, the pins that keep draining pages findable, and the
 * background drain that executes transitions.
 *
 * The slice layout (the consistent-hash ring with each slice's
 * activation and owner) is one fact for the whole cache, because
 * pages stripe over the memory controllers: the ResizeController owns
 * it and every domain reads it through a const reference. What is
 * per memory controller lives here. Its sets are split into numSlices
 * contiguous groups, and a page's home set is
 * (slice base + hash % setsPerSlice) where the slice comes from the
 * layout, so only pages whose slice assignment changes ever move.
 * During a transition, pages queued for migration are *pinned* to
 * their old set — demand hits and LLC writebacks keep finding them at
 * their physical frame until the drain has written them back and
 * published the un-mapping — which is what makes the drain safe to
 * run concurrently with demand traffic instead of stopping the world.
 *
 * The drain walks the queued frames and evicts them in small
 * rate-limited batches on the event queue, so migration writebacks
 * interleave with demand traffic in the DRAM controllers' queues
 * exactly like any other requests. When
 * the Tag Buffer cannot accept further remap entries the drain
 * requests the OS batch PTE update (the same lazy machinery
 * replacements use) and backs off; the resize controller kicks it
 * again the moment the update completes.
 */

#ifndef BANSHEE_RESIZE_RESIZE_DOMAIN_HH
#define BANSHEE_RESIZE_RESIZE_DOMAIN_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "resize/consistent_hash.hh"
#include "resize/resize_config.hh"
#include "resize/resize_host.hh"
#include "telemetry/histogram.hh"

namespace banshee {

class PageJournal; // telemetry/span_trace.hh

class ResizeDomain
{
  public:
    /** @p layout must outlive the domain; the ResizeController owns
     *  both. */
    ResizeDomain(EventQueue &eq, ResizeHost &host,
                 const ConsistentHashMapper &layout,
                 const ResizeConfig &config);

    /**
     * Resize-aware set index for @p page. @p mixedHash is the
     * scheme's existing page-placement hash, reused as the offset
     * within the slice so the no-resize layout and the 1-slice layout
     * spread pages identically. In a partitioned (multi-tenant)
     * layout the successor walk is restricted to the page's tenant's
     * slices, confining each tenant to its quota.
     *
     * A direct-mapped memo indexed by @p mixedHash answers repeat
     * lookups without the pin lookup and the ring walk. Whatever
     * changes a page's set clears it first: drain() (the layout flips
     * and the new pins) and every pin drop.
     */
    std::uint32_t
    setOf(PageNum page, std::uint64_t mixedHash)
    {
        MemoEntry &e = memo_[mixedHash % kMemoEntries];
        if (e.page != page)
            e = MemoEntry{page, computeSetOf(page, mixedHash)};
        return e.set;
    }

    /** Slice owning set @p setIdx (layout, not ring). */
    std::uint32_t
    sliceOfSet(std::uint32_t setIdx) const
    {
        return setIdx / setsPerSlice_;
    }

    /**
     * The layout just changed: queue every resident page whose home
     * set moved (every resident page under FlushAll), pin each to the
     * set it still occupies, and start the drain. Each page drops its
     * pin when it is drained or skipped. @p onDone fires when the
     * drain completes, possibly before this returns. It also clears
     * the set memo, so every layout change must reach drain() before
     * the next setOf().
     */
    void drain(std::function<void()> onDone);

    /** Re-arm a stalled drain (e.g. after a PTE update freed tag
     *  buffer space). No-op when idle or already armed. */
    void kick();

    /** A drain is in flight. */
    bool draining() const { return draining_; }

    /** A frame left the cache through normal replacement; drop any
     *  pin so future accesses use the page's new home set. */
    void notifyFrameEvicted(PageNum page) { unpin(page); }

    /** The shared slice layout (owned by the ResizeController). */
    const ConsistentHashMapper &layout() const { return layout_; }

    ResizeHost &host() { return host_; }

    std::uint64_t pagesDrained() const { return statDrained_.value(); }
    std::uint64_t dirtyPagesDrained() const { return statDirty_.value(); }
    std::uint64_t pagesSkipped() const { return statSkipped_.value(); }
    std::uint64_t tagBufferStalls() const { return statStalls_.value(); }

    /** Zero the drain counters (warmup boundary). */
    void resetStats() { stats_.reset(); }

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

  private:
    struct Frame
    {
        std::uint32_t set;
        std::uint32_t way;
        PageNum page;
    };

    /** One setOf answer; page ~0 marks an empty entry. */
    struct MemoEntry
    {
        PageNum page = ~0ull;
        std::uint32_t set = 0;
    };
    static constexpr std::size_t kMemoEntries = 64;

    /** setOf without the memo: the page's pin, else its home set. */
    std::uint32_t
    computeSetOf(PageNum page, std::uint64_t mixedHash) const
    {
        auto pin = pinned_.find(page);
        if (pin != pinned_.end())
            return pin->second;
        const std::uint32_t slice =
            layout_.sliceOf(page, partitioned_ ? host_.pageTenant(page)
                                               : kNoTenant);
        return slice * setsPerSlice_ +
               static_cast<std::uint32_t>(mixedHash % setsPerSlice_);
    }

    /** Drain up to pagesPerBatch frames, then re-arm or finish. */
    void tick();

    void armTick(Cycle delay);

    /** Drop @p page's pin, if any, and with it every memoized set. */
    void
    unpin(PageNum page)
    {
        if (pinned_.erase(page) > 0)
            memo_.fill(MemoEntry{});
    }

    EventQueue &eq_;
    ResizeHost &host_;
    const ConsistentHashMapper &layout_;
    MigrationParams params_;
    ResizeStrategy strategy_;
    bool partitioned_;
    std::uint32_t setsPerSlice_;
    /** Pages awaiting migration -> the old set they still occupy. */
    std::unordered_map<PageNum, std::uint32_t> pinned_;
    std::array<MemoEntry, kMemoEntries> memo_{};

    /** Frames queued by drain(), in drain order. */
    std::deque<Frame> pending_;
    std::function<void()> onDone_;
    bool draining_ = false;
    /** The domain's one drain-tick event; armTick() re-arms it. */
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

#endif // BANSHEE_RESIZE_RESIZE_DOMAIN_HH
