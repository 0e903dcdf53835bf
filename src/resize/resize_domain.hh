/**
 * @file
 * Per-memory-controller resize state: the set mapping over the shared
 * slice layout, the pins that keep draining pages findable, and the
 * migration engine that executes transitions.
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
 * their physical frame until the engine has written them back and
 * published the un-mapping — which is what makes the drain safe to
 * run concurrently with demand traffic instead of stopping the world.
 */

#ifndef BANSHEE_RESIZE_RESIZE_DOMAIN_HH
#define BANSHEE_RESIZE_RESIZE_DOMAIN_HH

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/event_queue.hh"
#include "resize/consistent_hash.hh"
#include "resize/migration_engine.hh"
#include "resize/resize_config.hh"
#include "resize/resize_host.hh"

namespace banshee {

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
     */
    std::uint32_t
    setOf(PageNum page, std::uint64_t mixedHash) const
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

    /** Slice owning set @p setIdx (layout, not ring). */
    std::uint32_t
    sliceOfSet(std::uint32_t setIdx) const
    {
        return setIdx / setsPerSlice_;
    }

    /**
     * The layout just changed: queue every resident page whose home
     * set moved (every resident page under FlushAll), pin each to the
     * set it still occupies, and start the drain. @p onDone fires
     * when the drain completes, possibly before this returns.
     */
    void drain(std::function<void()> onDone);

    /** A frame left the cache through normal replacement; drop any
     *  pin so future accesses use the page's new home set. */
    void
    notifyFrameEvicted(PageNum page)
    {
        if (pinned_.erase(page) > 0)
            ++layoutGeneration_;
    }

    /**
     * Monotone counter bumped on every page->set mapping mutation:
     * once per transition (the layout change plus the pin inserts at
     * drain start) and on every pin drop (drain progress or
     * eviction). A cached (page, setOf(page)) pair is valid iff the
     * generation it was computed under still matches — the
     * invalidation contract the scheme's per-core mapping memo relies
     * on.
     */
    std::uint64_t layoutGeneration() const { return layoutGeneration_; }

    /** The shared slice layout (owned by the ResizeController). */
    const ConsistentHashMapper &layout() const { return layout_; }

    MigrationEngine &engine() { return engine_; }
    const MigrationEngine &engine() const { return engine_; }
    ResizeHost &host() { return host_; }

  private:
    ResizeHost &host_;
    const ConsistentHashMapper &layout_;
    MigrationEngine engine_;
    ResizeStrategy strategy_;
    bool partitioned_;
    std::uint32_t setsPerSlice_;
    /** Pages awaiting migration -> the old set they still occupy. */
    std::unordered_map<PageNum, std::uint32_t> pinned_;
    std::uint64_t layoutGeneration_ = 0;
};

} // namespace banshee

#endif // BANSHEE_RESIZE_RESIZE_DOMAIN_HH
