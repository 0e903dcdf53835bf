/**
 * @file
 * Abstract DRAM cache scheme, instantiated once per memory controller.
 *
 * The memory controller framework routes each LLC miss / dirty
 * eviction to the scheme owning its page; the scheme decides which
 * DRAM to touch, with what extra metadata traffic, and when the
 * demand data is available. Concrete schemes: Banshee (src/core) and
 * the baselines NoCache, CacheOnly, Alloy(+BEAR), Unison, TDC, HMA
 * (src/schemes).
 */

#ifndef BANSHEE_MEM_SCHEME_HH
#define BANSHEE_MEM_SCHEME_HH

#include <cstdint>
#include <memory>

#include <array>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram_model.hh"
#include "mem/request.hh"
#include "os/os_services.hh"
#include "os/page_table.hh"
#include "telemetry/span_trace.hh"
#include "tenant/tenant_map.hh"

namespace banshee {

class BatmanController;
class ResizeHost;

/** Everything a scheme needs from the surrounding system. */
struct SchemeContext
{
    EventQueue *eq = nullptr;
    DramModel *inPkg = nullptr;   ///< may be null (NoCache)
    DramModel *offPkg = nullptr;  ///< may be null (CacheOnly)
    std::uint32_t mcId = 0;       ///< this controller's index
    std::uint32_t numMcs = 1;     ///< page -> MC striping factor
    std::uint64_t cacheBytesPerMc = 0; ///< in-package capacity share
    PageTableManager *pageTable = nullptr;
    OsServices *os = nullptr;
    BatmanController *batman = nullptr; ///< optional bandwidth balancer
    const TenantMap *tenants = nullptr; ///< null = single-tenant run
    std::uint64_t seed = 1;
};

class DramCacheScheme
{
  public:
    explicit DramCacheScheme(const SchemeContext &ctx)
        : ctx_(ctx), rng_(ctx.seed * 0x9e3779b97f4a7c15ull + ctx.mcId),
          statAccesses_(stats_.counter("accesses")),
          statHits_(stats_.counter("hits")),
          statMisses_(stats_.counter("misses"))
    {
    }

    virtual ~DramCacheScheme() = default;

    /**
     * Demand line fetch from the LLC. @p done must eventually fire
     * with the cycle the 64 B line is available.
     */
    virtual void demandFetch(LineAddr line, const MappingInfo &mapping,
                             MissDoneFn done) = 0;

    /** Posted dirty-line eviction from the LLC (no mapping attached). */
    virtual void demandWriteback(LineAddr line) = 0;

    /**
     * The scheme's dynamic-resize interface, or nullptr when the
     * scheme does not support runtime capacity changes (only Banshee
     * does: resizing rides on its lazy PTE/TLB remap machinery).
     */
    virtual ResizeHost *resizeHost() { return nullptr; }

    /** Attach span tracing (null = off). Schemes tag the traffic of
     *  sampled pages and emit lifecycle instants/spans. */
    void attachSpanTrace(PageJournal *journal) { spans_ = journal; }

    StatSet &stats() { return stats_; }

    std::uint64_t accesses() const { return statAccesses_.value(); }
    std::uint64_t hits() const { return statHits_.value(); }
    std::uint64_t misses() const { return statMisses_.value(); }

    double
    missRate() const
    {
        const std::uint64_t a = accesses();
        return a == 0 ? 0.0 : static_cast<double>(misses()) / a;
    }

    /** Demand accesses / misses attributed to one tenant. */
    std::uint64_t
    tenantAccesses(TenantId t) const
    {
        return tenantAccesses_[tenantBucket(t)];
    }

    std::uint64_t
    tenantMisses(TenantId t) const
    {
        return tenantMisses_[tenantBucket(t)];
    }

    virtual void
    resetStats()
    {
        stats_.reset();
        tenantAccesses_.fill(0);
        tenantMisses_.fill(0);
    }

  protected:
    /** Record a demand access outcome in the common counters. */
    void
    recordAccess(bool hit, TenantId tenant)
    {
        ++statAccesses_;
        ++tenantAccesses_[tenantBucket(tenant)];
        if (hit) {
            ++statHits_;
        } else {
            ++statMisses_;
            ++tenantMisses_[tenantBucket(tenant)];
        }
    }

    /** Owner of @p addr in a multi-tenant run (else kNoTenant). */
    TenantId
    tenantOfAddr(Addr addr) const
    {
        return ctx_.tenants ? ctx_.tenants->tenantOfAddr(addr) : kNoTenant;
    }

    /**
     * The span tag for traffic belonging to @p page: the page itself
     * when tracing is on and the page is sampled, else kNoSpanPage.
     * @p page is in the scheme's own page granularity.
     */
    PageNum
    spanPageOf(PageNum page) const
    {
        return (spans_ && spans_->sampledPage(page)) ? page : kNoSpanPage;
    }

    /** 64 B read of @p line from off-package DRAM. */
    void
    offPkgRead64(LineAddr line, TrafficCat cat, DramDoneFn done,
                 TenantId tenant, PageNum spanPage = kNoSpanPage)
    {
        DramRequest req;
        req.addr = lineToAddr(line);
        req.bytes = kLineBytes;
        req.isWrite = false;
        req.cat = cat;
        req.tenant = tenant;
        req.spanPage = spanPage;
        req.done = std::move(done);
        ctx_.offPkg->access(offPkgChannel(line), std::move(req));
    }

    /** Posted 64 B write of @p line to off-package DRAM. */
    void
    offPkgWrite64(LineAddr line, TrafficCat cat, TenantId tenant,
                  PageNum spanPage = kNoSpanPage)
    {
        DramRequest req;
        req.addr = lineToAddr(line);
        req.bytes = kLineBytes;
        req.isWrite = true;
        req.cat = cat;
        req.tenant = tenant;
        req.spanPage = spanPage;
        ctx_.offPkg->access(offPkgChannel(line), std::move(req));
    }

    /** Access on this MC's in-package channel at a device address. */
    void
    inPkgAccess(Addr deviceAddr, std::uint32_t bytes, std::uint32_t tagBytes,
                bool isWrite, TrafficCat cat, DramDoneFn done,
                TenantId tenant, PageNum spanPage = kNoSpanPage)
    {
        DramRequest req;
        req.addr = deviceAddr;
        req.bytes = bytes;
        req.tagBytes = tagBytes;
        req.isWrite = isWrite;
        req.cat = cat;
        req.tenant = tenant;
        req.spanPage = spanPage;
        req.done = std::move(done);
        ctx_.inPkg->access(ctx_.mcId, std::move(req));
    }

    /** Bulk (page-sized) movement on the in-package channel. */
    void
    inPkgBulk(Addr deviceAddr, std::uint64_t bytes, bool isWrite,
              TrafficCat cat, TenantId tenant, PageNum spanPage = kNoSpanPage)
    {
        ctx_.inPkg->bulkAccess(ctx_.mcId, deviceAddr, bytes, isWrite, cat,
                               tenant, spanPage);
    }

    /** Bulk movement of a page's worth of off-package data. */
    void
    offPkgBulk(Addr byteAddr, std::uint64_t bytes, bool isWrite,
               TrafficCat cat, TenantId tenant,
               PageNum spanPage = kNoSpanPage)
    {
        ctx_.offPkg->bulkAccess(offPkgChannel(lineOf(byteAddr)), byteAddr,
                                bytes, isWrite, cat, tenant, spanPage);
    }

    std::uint32_t
    offPkgChannel(LineAddr line) const
    {
        return static_cast<std::uint32_t>(pageOfLine(line) %
                                          ctx_.offPkg->numChannels());
    }

    SchemeContext ctx_;
    PageJournal *spans_ = nullptr; ///< span tracing; null = off
    Rng rng_;
    StatSet stats_;
    Counter &statAccesses_;
    Counter &statHits_;
    Counter &statMisses_;
    std::array<std::uint64_t, kTenantBuckets> tenantAccesses_{};
    std::array<std::uint64_t, kTenantBuckets> tenantMisses_{};
};

/** Factory signature used by the system builder. */
using SchemeFactory =
    std::function<std::unique_ptr<DramCacheScheme>(const SchemeContext &)>;

} // namespace banshee

#endif // BANSHEE_MEM_SCHEME_HH
