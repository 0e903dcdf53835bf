/**
 * @file
 * What the resizing subsystem needs from a DRAM-cache scheme.
 *
 * A scheme that supports dynamic resizing exposes its directory of
 * resident pages, a tag-buffer admission check, and a frame-eviction
 * primitive that charges migration traffic through the DRAM model and
 * publishes the remap through Banshee's lazy PTE/TLB machinery (tag
 * buffer remap entry + deferred batch commit). Keeping this an
 * interface lets a ResizeDomain's drain be unit-tested against a fake
 * host and keeps src/resize free of dependencies on src/core.
 */

#ifndef BANSHEE_RESIZE_RESIZE_HOST_HH
#define BANSHEE_RESIZE_RESIZE_HOST_HH

#include <cstdint>
#include <functional>

#include "common/types.hh"
#include "tenant/tenant.hh"

namespace banshee {

class ResizeDomain;

class ResizeHost
{
  public:
    virtual ~ResizeHost() = default;

    /** Sets in this controller's directory. */
    virtual std::uint32_t numSets() const = 0;

    /** Visit every valid resident frame: fn(set, way, page, dirty). */
    virtual void forEachResident(
        const std::function<void(std::uint32_t, std::uint32_t, PageNum,
                                 bool)> &fn) = 0;

    /** Is @p page still resident at (set, way)? Re-checked at drain
     *  time: normal replacement may have evicted it meanwhile. */
    virtual bool residentAt(std::uint32_t set, std::uint32_t way,
                            PageNum page) = 0;

    /** Can the tag buffer take the remap entry an eviction needs? */
    virtual bool canEvictFrame(PageNum page) const = 0;

    /**
     * Drain one frame: write the page back off-package if dirty
     * (charged as TrafficCat::Migration), invalidate the directory
     * entry, and publish the un-mapping through the tag buffer so
     * PTEs/TLBs learn of it at the next batch commit.
     * @return true if the page was dirty (a writeback was issued).
     */
    virtual bool evictFrame(std::uint32_t set, std::uint32_t way) = 0;

    /** Ask the OS to run the batch PTE-update routine (frees remap
     *  slots in the tag buffer). */
    virtual void requestMappingCommit() = 0;

    /** Attach the per-controller resize domain (set mapping + drain)
     *  once the subsystem is built. */
    virtual void attachResizeDomain(ResizeDomain *domain) = 0;

    // Per-tenant demand statistics feeding the QoS arbiter. Hosts
    // without tenant tracking report zero.
    virtual std::uint64_t
    demandAccessesOf(TenantId t) const
    {
        (void)t;
        return 0;
    }

    virtual std::uint64_t
    demandMissesOf(TenantId t) const
    {
        (void)t;
        return 0;
    }

    /** Owner of a (scheme-granularity) page, for tenant-aware slice
     *  placement; kNoTenant when the host has no tenant tracking. */
    virtual TenantId
    pageTenant(PageNum page) const
    {
        (void)page;
        return kNoTenant;
    }

    /** Test hook: assert directory / page-table / slice consistency. */
    virtual void verifyResidencyConsistent() = 0;
};

} // namespace banshee

#endif // BANSHEE_RESIZE_RESIZE_HOST_HH
