#include "resize/resize_policy.hh"

#include <algorithm>

namespace banshee {

const char *
resizeReasonName(ResizeReason r)
{
    switch (r) {
    case ResizeReason::None:
        return "none";
    case ResizeReason::Schedule:
        return "schedule";
    case ResizeReason::CapShed:
        return "cap_shed";
    case ResizeReason::CapGrow:
        return "cap_grow";
    case ResizeReason::Rebalance:
        return "rebalance";
    case ResizeReason::Lend:
        return "lend";
    }
    return "?";
}

namespace {

/** A tenant below this epoch miss rate is cold: it may lend. */
constexpr double kShrinkMissRate = 0.02;
/** A tenant above this epoch miss rate thrashes: it may borrow. */
constexpr double kGrowMissRate = 0.20;
/** Entitlement hysteresis: rebalance only when a tenant sits more than
 *  this many slices under its weight-entitled share. */
constexpr double kQosDeficitSlack = 0.5;

/** Exact (fractional) entitlement of tenant @p t at @p active. */
double
entitled(const std::vector<TenantEpochStats> &tenants, std::size_t t,
         std::uint32_t active)
{
    double sum = 0.0;
    for (const TenantEpochStats &ts : tenants)
        sum += ts.weight;
    return tenants[t].weight / sum * active;
}

} // namespace

ResizeDecision
ResizePolicy::decide(std::uint64_t epochIndex, const ResizeEpochStats &epoch,
                     std::uint32_t activeSlices,
                     std::uint32_t totalSlices) const
{
    switch (config_.kind) {
    case ResizePolicyConfig::Kind::Schedule:
        for (const ResizeStep &step : config_.schedule) {
            if (step.epoch != epochIndex)
                continue;
            const std::uint32_t target =
                std::clamp<std::uint32_t>(step.targetSlices, 1, totalSlices);
            if (target != activeSlices) {
                ResizeDecision d;
                d.targetActive = target;
                d.reason = ResizeReason::Schedule;
                return d;
            }
        }
        return {};
    case ResizePolicyConfig::Kind::PowerCap:
        return powerCap(epoch, activeSlices, totalSlices);
    case ResizePolicyConfig::Kind::Qos:
        return arbitrate(epoch, activeSlices, totalSlices);
    }
    return {};
}

ResizeDecision
ResizePolicy::powerCap(const ResizeEpochStats &epoch,
                       std::uint32_t activeSlices,
                       std::uint32_t totalSlices) const
{
    ResizeDecision d;
    if (config_.powerCapWatts <= 0.0)
        return d;

    // What one active slice contributes in gateable power. When the
    // measurement has no background component (e.g. the first epoch
    // after a reset), shedding a slice cannot save anything — hold.
    const double perSliceWatts =
        activeSlices == 0 ? 0.0
                          : epoch.bgRefreshWatts /
                                static_cast<double>(activeSlices);
    if (perSliceWatts <= 0.0)
        return d;

    const std::uint32_t floor =
        std::max<std::uint32_t>(config_.minSlices, 1);
    if (epoch.avgPowerWatts > config_.powerCapWatts &&
        activeSlices > floor) {
        d.targetActive = activeSlices - 1;
        d.reason = ResizeReason::CapShed;
        return d;
    }

    // Grow only with hysteresis headroom: re-enabling a slice adds
    // its background share back, and the margin keeps a small power
    // rise from immediately re-shedding it.
    const double afterGrow =
        epoch.avgPowerWatts +
        perSliceWatts * (1.0 + config_.powerGrowMargin);
    if (activeSlices < totalSlices && afterGrow <= config_.powerCapWatts) {
        d.targetActive = activeSlices + 1;
        d.reason = ResizeReason::CapGrow;
    }
    return d;
}

ResizeDecision
ResizePolicy::arbitrate(const ResizeEpochStats &epoch,
                        std::uint32_t activeSlices,
                        std::uint32_t totalSlices) const
{
    const std::vector<TenantEpochStats> &ts = epoch.tenants;
    const std::size_t n = ts.size();
    if (n == 0)
        return {};

    // ---------------------------------------- power-cap composition
    // The cap decides the count; the arbiter decides whose slice.
    ResizeDecision d = powerCap(epoch, activeSlices, totalSlices);
    if (d.reason == ResizeReason::CapShed) {
        // Shed from the tenant furthest over its quota at the
        // post-shed size (so repeated sheds distribute fairly).
        double bestOver = -1e300;
        for (std::size_t t = 0; t < n; ++t) {
            if (ts[t].ownedSlices <= kMinSlicesPerTenant)
                continue;
            const double over = static_cast<double>(ts[t].ownedSlices) -
                                entitled(ts, t, *d.targetActive);
            if (over > bestOver) {
                bestOver = over;
                d.donor = static_cast<TenantId>(t);
            }
        }
        if (d.donor == kNoTenant)
            return {}; // every tenant at its floor
        return d;
    }
    if (d.reason == ResizeReason::CapGrow) {
        // Hand the returning slice to the largest deficit; break ties
        // toward the tenant under more miss pressure.
        double bestUnder = -1e300;
        for (std::size_t t = 0; t < n; ++t) {
            const double under = entitled(ts, t, *d.targetActive) -
                                 static_cast<double>(ts[t].ownedSlices) +
                                 ts[t].missRate() * 1e-3;
            if (under > bestUnder) {
                bestUnder = under;
                d.receiver = static_cast<TenantId>(t);
            }
        }
        return d;
    }

    // -------------------------------------- entitlement rebalance
    // Ownership drifted from the weights (stale layout, uneven cap
    // shed): one slice per epoch from max surplus to max deficit.
    double bestDeficit = kQosDeficitSlack;
    double bestSurplus = 0.0;
    std::size_t deficitT = n;
    std::size_t surplusT = n;
    for (std::size_t t = 0; t < n; ++t) {
        const double diff = entitled(ts, t, activeSlices) -
                            static_cast<double>(ts[t].ownedSlices);
        if (diff > bestDeficit) {
            bestDeficit = diff;
            deficitT = t;
        }
        if (-diff > bestSurplus && ts[t].ownedSlices > kMinSlicesPerTenant) {
            bestSurplus = -diff;
            surplusT = t;
        }
    }
    if (deficitT < n && surplusT < n && deficitT != surplusT) {
        // A loan-sized deficit is not drift: while the surplus tenant
        // is still thrashing and the deficit tenant shows no pressure
        // of its own, reclaiming the lent slice would only flap it
        // back and forth through a full drain every epoch. Anything
        // beyond the one-slice lending allowance is reclaimed
        // regardless — quota remains the steady-state guarantee.
        const TenantEpochStats &def = ts[deficitT];
        const TenantEpochStats &sur = ts[surplusT];
        // Asymmetric evidence bar (hysteresis): granting a loan
        // requires a full epoch's worth of borrower traffic, but
        // *keeping* one only requires the borrower not to have gone
        // idle — otherwise a borrower hovering around the access
        // floor would flip the loan every other epoch.
        const bool surplusThrashing =
            sur.accesses > 0 && sur.missRate() > kGrowMissRate;
        const bool deficitCold =
            def.accesses < config_.minEpochAccesses ||
            def.missRate() < kShrinkMissRate;
        const bool loanSized =
            bestDeficit <= 1.0 + kQosDeficitSlack;
        if (!(surplusThrashing && deficitCold && loanSized)) {
            d.donor = static_cast<TenantId>(surplusT);
            d.receiver = static_cast<TenantId>(deficitT);
            d.reason = ResizeReason::Rebalance;
            return d;
        }
    }

    // ------------------------------------------- pressure lending
    // A thrashing tenant may borrow one slice beyond its entitlement
    // from a demonstrably cold tenant — but the donor never drops
    // below one slice under its own entitlement, so quotas remain a
    // floor a hostile tenant cannot arbitrate away.
    std::size_t starved = n;
    double worstMiss = kGrowMissRate;
    for (std::size_t t = 0; t < n; ++t) {
        if (ts[t].accesses < config_.minEpochAccesses)
            continue;
        if (ts[t].missRate() > worstMiss) {
            worstMiss = ts[t].missRate();
            starved = t;
        }
    }
    if (starved < n) {
        std::size_t coldest = n;
        double coldMiss = kShrinkMissRate;
        for (std::size_t t = 0; t < n; ++t) {
            if (t == starved || ts[t].ownedSlices <= kMinSlicesPerTenant)
                continue;
            if (static_cast<double>(ts[t].ownedSlices) <=
                entitled(ts, t, activeSlices) - 1.0) {
                continue; // already lending its one-slice allowance
            }
            const double mr = ts[t].accesses >= config_.minEpochAccesses
                                  ? ts[t].missRate()
                                  : 0.0;
            if (mr < coldMiss) {
                coldMiss = mr;
                coldest = t;
            }
        }
        if (coldest < n) {
            d.donor = static_cast<TenantId>(coldest);
            d.receiver = static_cast<TenantId>(starved);
            d.reason = ResizeReason::Lend;
            return d;
        }
    }

    return {};
}

} // namespace banshee
