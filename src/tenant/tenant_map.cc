#include "tenant/tenant_map.hh"

#include <algorithm>

#include "common/log.hh"

namespace banshee {

TenantMap::TenantMap(std::vector<TenantConfig> tenants,
                     std::uint32_t numCores)
    : tenants_(std::move(tenants)), coreOwner_(numCores, kNoTenant)
{
    sim_assert(!tenants_.empty(), "tenant map without tenants");
    sim_assert(tenants_.size() <= kMaxTenants, "more than %zu tenants",
               kMaxTenants);

    // Explicit core counts first; tenants with numCores == 0 split the
    // leftover equally (earlier tenants take the remainder).
    std::uint32_t claimed = 0;
    std::uint32_t flexible = 0;
    for (const TenantConfig &tc : tenants_) {
        sim_assert(tc.weight > 0.0, "tenant '%s' needs a positive weight",
                   tc.name.c_str());
        claimed += tc.numCores;
        flexible += tc.numCores == 0 ? 1 : 0;
    }
    sim_assert(claimed <= numCores,
               "tenants claim %u cores but the system has %u", claimed,
               numCores);
    sim_assert(flexible > 0 || claimed == numCores,
               "tenant core counts (%u) must cover all %u cores", claimed,
               numCores);
    std::uint32_t leftover = numCores - claimed;

    firstCore_.resize(tenants_.size());
    coreCount_.resize(tenants_.size());
    CoreId next = 0;
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
        std::uint32_t count = tenants_[t].numCores;
        if (count == 0) {
            count = leftover / flexible + (leftover % flexible ? 1 : 0);
            count = std::min(count, leftover);
            leftover -= count;
            --flexible;
        }
        sim_assert(count > 0, "tenant '%s' owns no cores",
                   tenants_[t].name.c_str());
        firstCore_[t] = next;
        coreCount_[t] = count;
        for (std::uint32_t c = 0; c < count; ++c)
            coreOwner_[next++] = static_cast<TenantId>(t);
    }
    sim_assert(next == numCores, "core assignment left cores unowned");
}

double
TenantMap::share(TenantId t) const
{
    double sum = 0.0;
    for (const TenantConfig &tc : tenants_)
        sum += tc.weight;
    return tenants_[t].weight / sum;
}

std::array<double, kMaxTenants>
TenantMap::weightShares() const
{
    std::array<double, kMaxTenants> shares{};
    for (std::size_t t = 0; t < tenants_.size(); ++t)
        shares[t] = share(static_cast<TenantId>(t));
    return shares;
}

void
TenantMap::addRegion(Addr base, Addr limit, TenantId t)
{
    sim_assert(base < limit && t < tenants_.size(), "bad tenant region");
    regions_.push_back(Region{base, limit, t});
    std::sort(regions_.begin(), regions_.end(),
              [](const Region &a, const Region &b) {
                  return a.base < b.base;
              });
    for (std::size_t i = 1; i < regions_.size(); ++i) {
        sim_assert(regions_[i - 1].limit <= regions_[i].base,
                   "tenant regions overlap");
    }
}

TenantId
TenantMap::tenantOfAddr(Addr addr) const
{
    // Binary search for the last region starting at or before addr.
    auto it = std::upper_bound(regions_.begin(), regions_.end(), addr,
                               [](Addr a, const Region &r) {
                                   return a < r.base;
                               });
    if (it == regions_.begin())
        return kNoTenant;
    --it;
    return addr < it->limit ? it->tenant : kNoTenant;
}

} // namespace banshee
