/**
 * @file
 * Who owns what in a multi-tenant run.
 *
 * The TenantMap is the single authority for the two bindings the rest
 * of the system needs:
 *
 *  - core -> tenant: cores are handed to tenants in contiguous runs
 *    (explicit numCores, or an equal split of the leftover), the way
 *    a host partitions hardware threads between co-located jobs;
 *  - address -> tenant: each tenant's workload runs over its cores'
 *    private heap regions, registered here at system build time, so
 *    any layer holding only an address (LLC writebacks, the resize
 *    scan over resident frames, DRAM traffic attribution) can recover
 *    the owner without a core id.
 *
 * Weights double as quota shares for slice apportionment, as the QoS
 * arbiter's entitlement and as the QoS scheduler's bandwidth shares.
 */

#ifndef BANSHEE_TENANT_TENANT_MAP_HH
#define BANSHEE_TENANT_TENANT_MAP_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "tenant/tenant.hh"

namespace banshee {

class TenantMap
{
  public:
    TenantMap(std::vector<TenantConfig> tenants, std::uint32_t numCores);

    std::uint32_t
    numTenants() const
    {
        return static_cast<std::uint32_t>(tenants_.size());
    }

    const TenantConfig &
    config(TenantId t) const
    {
        return tenants_[t];
    }

    double weight(TenantId t) const { return tenants_[t].weight; }

    /** Normalized quota share of @p t (weights sum to 1). */
    double share(TenantId t) const;

    /** share() of every tenant, indexed by TenantId (0 past the last
     *  tenant) — the QoS scheduler's bandwidth entitlement. */
    std::array<double, kMaxTenants> weightShares() const;

    TenantId
    tenantOfCore(CoreId core) const
    {
        return core < coreOwner_.size() ? coreOwner_[core] : kNoTenant;
    }

    /** [first, first+count) cores owned by @p t. */
    CoreId firstCore(TenantId t) const { return firstCore_[t]; }
    std::uint32_t coreCount(TenantId t) const { return coreCount_[t]; }

    /** Register [base, limit) as owned by @p t (system build time). */
    void addRegion(Addr base, Addr limit, TenantId t);

    /** Owner of @p addr, or kNoTenant for unregistered (shared) space. */
    TenantId tenantOfAddr(Addr addr) const;

  private:
    struct Region
    {
        Addr base;
        Addr limit;
        TenantId tenant;
    };

    std::vector<TenantConfig> tenants_;
    std::vector<TenantId> coreOwner_;
    std::vector<CoreId> firstCore_;
    std::vector<std::uint32_t> coreCount_;
    std::vector<Region> regions_; ///< sorted by base, non-overlapping
};

} // namespace banshee

#endif // BANSHEE_TENANT_TENANT_MAP_HH
