/**
 * @file
 * Epoch-driven resize decisions.
 *
 * Once per epoch the controller hands the policy what it observed —
 * the in-package device's smoothed power and, in multi-tenant runs,
 * each tenant's demand delta, owned slices and quota weight — and the
 * policy returns one decision: a new active-slice count, a same-size
 * slice transfer between tenants, or nothing. Three kinds share that
 * decision type:
 *
 *  - Schedule replays a scripted list of (epoch, target) steps — the
 *    mode benches and external capacity managers use.
 *  - PowerCap picks the slice count from a watt budget: while the
 *    device is over the cap it sheds one slice per epoch (each
 *    deactivated slice gates its share of background+refresh power);
 *    it grows a slice back only when doing so would still leave the
 *    device under the cap with a hysteresis margin of the per-slice
 *    power, so the count converges instead of oscillating.
 *  - Qos arbitrates slices between tenants:
 *     - power-cap composition: the cap rule above decides the count;
 *       a shed comes from the tenant furthest over its
 *       weight-entitled share (never below its slice floor), a grow
 *       goes to the tenant furthest under it;
 *     - entitlement rebalance: when ownership drifts from the weights
 *       (a layout built from stale weights, or a shed that landed
 *       unevenly), move one slice per epoch from the largest surplus
 *       to the largest deficit until ownership matches within
 *       hysteresis slack;
 *     - pressure lending: a tenant thrashing above a 20% epoch miss
 *       rate may borrow one slice beyond its entitlement from a
 *       tenant idling below 2% — but a donor never lends below one
 *       slice under its own entitlement, so quota remains a
 *       guarantee.
 *
 * Pure function of its inputs; the controller rate-limits it (one
 * transition at a time, settle epochs after each drain).
 */

#ifndef BANSHEE_RESIZE_RESIZE_POLICY_HH
#define BANSHEE_RESIZE_RESIZE_POLICY_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "resize/resize_config.hh"
#include "tenant/tenant.hh"

namespace banshee {

/** Slices every tenant keeps in a partitioned layout: no shrink,
 *  transfer or arbiter decision takes a tenant's last slice. */
constexpr std::uint32_t kMinSlicesPerTenant = 1;

/** One tenant's part of an epoch observation (Kind::Qos input). */
struct TenantEpochStats
{
    /** Demand-traffic delta over the epoch. */
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    /** Active slices the tenant owns. */
    std::uint32_t ownedSlices = 0;
    /** Quota weight: the tenant is entitled to its weight share of
     *  the active slices. */
    double weight = 1.0;

    double
    missRate() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(accesses);
    }
};

/** What the controller observed over one epoch. */
struct ResizeEpochStats
{
    /** Smoothed in-package device power (W); zero without a power
     *  model. */
    double avgPowerWatts = 0.0;
    /** Background + refresh share of @c avgPowerWatts (W) — the part
     *  slice gating can actually shed. */
    double bgRefreshWatts = 0.0;
    /** Per tenant, indexed by TenantId; empty without tenants. */
    std::vector<TenantEpochStats> tenants;
};

/** Which rule produced a decision (trace/telemetry). */
enum class ResizeReason : std::uint8_t
{
    None,      ///< no action this epoch
    Schedule,  ///< a scripted step
    CapShed,   ///< power cap over budget: shed a slice
    CapGrow,   ///< power headroom: regrow a shed slice
    Rebalance, ///< ownership drifted from the quota weights
    Lend,      ///< pressure loan from a cold tenant to a thrasher
};

const char *resizeReasonName(ResizeReason r);

/** What the policy wants done this epoch. */
struct ResizeDecision
{
    /** New active-slice count; unset for a same-size transfer of one
     *  slice from @c donor to @c receiver. */
    std::optional<std::uint32_t> targetActive;
    /** Tenant losing a slice (partitioned sheds and transfers). */
    TenantId donor = kNoTenant;
    /** Tenant gaining a slice (partitioned grows and transfers). */
    TenantId receiver = kNoTenant;
    ResizeReason reason = ResizeReason::None;

    bool empty() const { return reason == ResizeReason::None; }
};

class ResizePolicy
{
  public:
    explicit ResizePolicy(const ResizePolicyConfig &config)
        : config_(config)
    {
    }

    /**
     * Decide what to do in measured-phase epoch @p epochIndex (an
     * empty decision stays put). Pure function of its inputs.
     */
    ResizeDecision decide(std::uint64_t epochIndex,
                          const ResizeEpochStats &epoch,
                          std::uint32_t activeSlices,
                          std::uint32_t totalSlices) const;

  private:
    /** The watt-budget rule: shed, grow or nothing. */
    ResizeDecision powerCap(const ResizeEpochStats &epoch,
                            std::uint32_t activeSlices,
                            std::uint32_t totalSlices) const;

    /** Kind::Qos: cap composition, then rebalance, then lending. */
    ResizeDecision arbitrate(const ResizeEpochStats &epoch,
                             std::uint32_t activeSlices,
                             std::uint32_t totalSlices) const;

    ResizePolicyConfig config_;
};

} // namespace banshee

#endif // BANSHEE_RESIZE_RESIZE_POLICY_HH
