/**
 * @file
 * The two bounding baselines: NoCache (off-package DRAM only) and
 * CacheOnly (infinite in-package DRAM), paper Section 5.1.1.
 */

#ifndef BANSHEE_SCHEMES_SIMPLE_HH
#define BANSHEE_SCHEMES_SIMPLE_HH

#include "mem/scheme.hh"

namespace banshee {

/** All traffic goes to the single off-package channel. */
class NoCacheScheme : public DramCacheScheme
{
  public:
    explicit NoCacheScheme(const SchemeContext &ctx)
        : DramCacheScheme(ctx)
    {
    }

    void
    demandFetch(LineAddr line, const MappingInfo &, MissDoneFn done) override
    {
        const TenantId tenant = tenantOfAddr(lineToAddr(line));
        recordAccess(false, tenant);
        offPkgRead64(line, TrafficCat::Demand, std::move(done), tenant);
    }

    void
    demandWriteback(LineAddr line) override
    {
        offPkgWrite64(line, TrafficCat::Writeback,
                      tenantOfAddr(lineToAddr(line)));
    }
};

/**
 * Infinite in-package DRAM: every access hits. The system has no
 * off-package device at all, so total bandwidth is lower than a
 * cache configuration — which is why Banshee can beat CacheOnly on
 * the most bandwidth-hungry graph codes (paper Section 5.2).
 */
class CacheOnlyScheme : public DramCacheScheme
{
  public:
    explicit CacheOnlyScheme(const SchemeContext &ctx)
        : DramCacheScheme(ctx)
    {
    }

    void
    demandFetch(LineAddr line, const MappingInfo &, MissDoneFn done) override
    {
        const TenantId tenant = tenantOfAddr(lineToAddr(line));
        recordAccess(true, tenant);
        inPkgAccess(deviceAddr(line), kLineBytes, 0, false,
                    TrafficCat::HitData, std::move(done), tenant);
    }

    void
    demandWriteback(LineAddr line) override
    {
        inPkgAccess(deviceAddr(line), kLineBytes, 0, true,
                    TrafficCat::HitData, nullptr,
                    tenantOfAddr(lineToAddr(line)));
    }

  private:
    Addr
    deviceAddr(LineAddr line) const
    {
        // Keep the page's row locality; fold the address onto the
        // channel's device space.
        const Addr a = lineToAddr(line) / ctx_.numMcs;
        return a;
    }
};

} // namespace banshee

#endif // BANSHEE_SCHEMES_SIMPLE_HH
