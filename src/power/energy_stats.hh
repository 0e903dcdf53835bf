/**
 * @file
 * Per-category energy accounting for one DRAM device, the energy
 * mirror of TrafficStats: dynamic energy (activate/precharge + burst
 * + I/O) is attributed to the TrafficCat of the request that caused
 * it, so benches can split demand vs replacement vs migration energy
 * the same way they split traffic. Background and refresh energy are
 * device-level (no request causes them) and kept separate; the
 * active-standby delta is traffic-proportional but not attributable
 * to a single request, and — unlike background/refresh — not
 * gateable, so it gets its own bucket (folding it into background
 * would overstate what slice power-gating can shed).
 */

#ifndef BANSHEE_POWER_ENERGY_STATS_HH
#define BANSHEE_POWER_ENERGY_STATS_HH

#include <array>

#include "dram/traffic.hh"

namespace banshee {

/** Accumulated energy in picojoules. Dynamic energy is additionally
 *  split per tenant (mirroring TrafficStats): every dynamic picojoule
 *  lands in one category bucket and one tenant bucket, so both
 *  breakdowns conserve the dynamic total. */
class EnergyStats
{
  public:
    void
    addDynamic(TrafficCat c, double pJ, TenantId tenant = kNoTenant)
    {
        dynamicPJ_[static_cast<std::size_t>(c)] += pJ;
        tenantDynamicPJ_[tenantBucket(tenant)] += pJ;
    }

    void addBackground(double pJ) { backgroundPJ_ += pJ; }
    void addRefresh(double pJ) { refreshPJ_ += pJ; }
    void addActiveStandby(double pJ) { activeStandbyPJ_ += pJ; }

    double
    dynamicPJ(TrafficCat c) const
    {
        return dynamicPJ_[static_cast<std::size_t>(c)];
    }

    double
    dynamicTotalPJ() const
    {
        double t = 0.0;
        for (double e : dynamicPJ_)
            t += e;
        return t;
    }

    /** Dynamic energy attributed to @p tenant's requests. */
    double
    tenantDynamicPJ(TenantId tenant) const
    {
        return tenantDynamicPJ_[tenantBucket(tenant)];
    }

    double backgroundPJ() const { return backgroundPJ_; }
    double refreshPJ() const { return refreshPJ_; }
    double activeStandbyPJ() const { return activeStandbyPJ_; }

    double
    totalPJ() const
    {
        return dynamicTotalPJ() + backgroundPJ_ + refreshPJ_ +
               activeStandbyPJ_;
    }

    void
    reset()
    {
        dynamicPJ_.fill(0.0);
        tenantDynamicPJ_.fill(0.0);
        backgroundPJ_ = 0.0;
        refreshPJ_ = 0.0;
        activeStandbyPJ_ = 0.0;
    }

  private:
    std::array<double, kNumTrafficCats> dynamicPJ_{};
    std::array<double, kTenantBuckets> tenantDynamicPJ_{};
    double backgroundPJ_ = 0.0;
    double refreshPJ_ = 0.0;
    double activeStandbyPJ_ = 0.0;
};

} // namespace banshee

#endif // BANSHEE_POWER_ENERGY_STATS_HH
