/**
 * @file
 * System-wide coordination of DRAM-cache resizing.
 *
 * The controller owns the cache's one slice layout (the
 * consistent-hash ring with each slice's activation and owner), one
 * ResizeDomain per memory controller, and an epoch clock on the event
 * queue. Pages stripe over the memory controllers, so the layout is
 * a single fact: every domain maps pages through a const reference
 * to it. Every epoch runs one path: measure (the in-package device's
 * smoothed power when a power model is attached, each tenant's demand
 * delta and slice ownership when tenants are), settle, ask the
 * ResizePolicy for a decision, and apply it — change the layout once,
 * then start every domain's drain. Each adopted decision, each
 * transition start and each commit is rendered once, from one field
 * list, to the Chrome "resize" track of the run's trace. It also
 * bridges the OS cooperation loop: when a batch PTE update completes,
 * every domain's stalled drain is kicked so it resumes immediately
 * instead of waiting out its back-off.
 *
 * Power gating: the controller drives the power model's gated-slice
 * fraction in both directions — a grow powers its slices up the
 * moment the transition starts (they must refresh before data lands),
 * a shrink powers its slices down only when the drain completes (they
 * hold live data until then).
 */

#ifndef BANSHEE_RESIZE_RESIZE_CONTROLLER_HH
#define BANSHEE_RESIZE_RESIZE_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "os/os_services.hh"
#include "power/power_model.hh"
#include "resize/resize_config.hh"
#include "resize/resize_domain.hh"
#include "resize/resize_policy.hh"
#include "telemetry/trace_sink.hh"
#include "tenant/tenant_map.hh"

namespace banshee {

class PageJournal;  // telemetry/span_trace.hh
class DramModel;    // dram/dram_model.hh

class ResizeController
{
  public:
    ResizeController(EventQueue &eq, OsServices &os,
                     const ResizeConfig &config);

    /** Register one scheme instance; builds and attaches its domain. */
    void addHost(ResizeHost &host);

    /**
     * Attach the in-package device's power model: deactivated slices
     * gate their share of background/refresh power, and epoch power
     * readings feed the power-cap rule. Optional — without it,
     * resizing works but saves no modeled energy. Re-attaching (or
     * attaching mid-run) reseeds the epoch-power baseline from the
     * model's current accumulators, so the first epoch reading is the
     * epoch's power — not the model's lifetime energy, which would
     * masquerade as a huge draw and trigger a spurious cap shed.
     */
    void attachPowerModel(DramPowerModel *power);

    /**
     * Multi-tenant runs: attach the tenant map. Its quota weights are
     * what Kind::Qos arbitrates toward, read every epoch.
     */
    void attachTenants(const TenantMap *tenants) { tenants_ = tenants; }

    /**
     * Attach the device whose channels run the QoS credit scheduler
     * (the in-package device — the contended tier). Entitlement shares
     * are pushed now and re-pushed at every transition commit, so
     * channel bandwidth credit tracks the live slice partition the
     * same way residency quota does. Null detaches.
     */
    void attachQosDevice(DramModel *dev);

    /**
     * Attach span tracing: decisions become instants and transitions
     * begin/end spans on a "resize" control track, each domain's
     * drain batches land on their own "migration.<i>" track, and
     * per-tenant quota changes are marked on "tenant.<name>" tracks.
     * Call after addHost and attachTenants. Null = off.
     */
    void attachSpanTrace(PageJournal *spans);

    /** Active slices owned by tenant @p t (0 when unpartitioned). */
    std::uint32_t
    slicesOwnedBy(TenantId t) const
    {
        return layout_.slicesOwnedBy(t);
    }

    std::size_t numDomains() const { return domains_.size(); }
    ResizeDomain &domain(std::size_t i) { return *domains_[i]; }

    /** Called at the warmup/measure boundary: reset the epoch clock
     *  and begin evaluating the policy. */
    void onMeasureStart();

    /** Stop scheduling further epochs (tests drain the queue dry). */
    void stopEpochs() { epochsStopped_ = true; }

    /**
     * Manually trigger a resize (external capacity manager). Returns
     * false if one is already in flight or the size would not change.
     * Shrinks deactivate the highest-id active slices, grows
     * reactivate the lowest-id inactive ones, so schedules are
     * deterministic. In a partitioned layout @p donor's slices shrink
     * first, no tenant loses its last slice (the shrink stops short
     * instead), and grown slices go to @p receiver (kNoTenant =
     * unrestricted).
     */
    bool requestResize(std::uint32_t targetSlices,
                       TenantId donor = kNoTenant,
                       TenantId receiver = kNoTenant);

    /** Move @p donor's highest-id active slice to @p receiver (QoS
     *  decision or external quota manager). Returns false when busy or
     *  the donor is at its slice floor. */
    bool requestReassign(TenantId donor, TenantId receiver);

    bool resizeInProgress() const { return pendingDomains_ > 0; }

    std::uint32_t activeSlices() const { return layout_.activeSlices(); }
    std::uint32_t totalSlices() const { return layout_.numSlices(); }

    /** Test hook: assert every domain's host is internally consistent. */
    void verifyResidencyConsistent();

    void resetStats();

    // Aggregates over all domains' drains.
    std::uint64_t pagesMigrated() const;
    std::uint64_t dirtyPagesMigrated() const;
    std::uint64_t tagBufferStalls() const;

    std::uint64_t resizesStarted() const { return statStarted_.value(); }
    std::uint64_t
    resizesCompleted() const
    {
        return statCompleted_.value();
    }

    std::uint64_t
    reassignsCompleted() const
    {
        return statReassigns_.value();
    }

    StatSet &stats() { return stats_; }

  private:
    /** Where a control record lands on the Chrome "resize" track. */
    enum class Mark : std::uint8_t
    {
        Instant, ///< a decision
        Begin,   ///< a transition starts
        End      ///< the open transition commits
    };

    void epochTick();

    /** Demand accesses and misses of tenant @p t, summed over all
     *  domains since the run started. */
    std::pair<std::uint64_t, std::uint64_t> tenantDemand(TenantId t) const;

    /** Start the decision's resize or reassignment. */
    bool apply(const ResizeDecision &d);

    /**
     * The one emitter of control records: renders @p fields to the
     * Chrome "resize" track as an instant, span begin or span end
     * named @p name (no-op without a span trace).
     */
    void trace(Mark mark, const char *name,
               std::initializer_list<TraceField> fields);

    /**
     * The layout just changed: trace the start of a @p kind
     * ("resize" or "reassign") transition with @p fields, then start
     * every domain's drain.
     */
    void startTransition(const char *kind, Counter &completions,
                         std::initializer_list<TraceField> fields);

    /** The last domain drained: count the commit in @p completions,
     *  trace it, and settle. */
    void commitTransition(Counter &completions, const char *kind);

    /** Recompute tenant entitlement shares and push them to the QoS
     *  device (no-op without one). */
    void pushQosShares();

    /** True when slices are partitioned between tenants. */
    bool partitioned() const { return !config_.tenantWeights.empty(); }

    /** Fraction of the device to gate for @p active of total slices. */
    double
    gatedFractionFor(std::uint32_t active) const
    {
        return 1.0 - static_cast<double>(active) /
                         static_cast<double>(totalSlices());
    }

    EventQueue &eq_;
    OsServices &os_;
    ResizeConfig config_;
    ResizePolicy policy_;
    /** The one slice layout every domain maps pages through. */
    ConsistentHashMapper layout_;
    DramPowerModel *power_ = nullptr;
    PageJournal *spans_ = nullptr;
    std::uint32_t spanTrack_ = 0;
    std::vector<std::uint32_t> tenantSpanTracks_;
    const TenantMap *tenants_ = nullptr;
    DramModel *qosDev_ = nullptr;
    std::vector<std::unique_ptr<ResizeDomain>> domains_;

    std::uint64_t epochIndex_ = 0;
    bool epochsStopped_ = false;
    /** The controller's epoch clock; re-armed each epochTick(). */
    TickEvent epochEvent_{[this] { epochTick(); }};
    std::uint32_t pendingDomains_ = 0;
    /** Schedule decision awaiting idle drains (deferred, not
     *  dropped). */
    std::optional<ResizeDecision> pending_;
    std::array<std::uint64_t, kTenantBuckets> prevTenantAccesses_{};
    std::array<std::uint64_t, kTenantBuckets> prevTenantMisses_{};
    double prevTotalPJ_ = 0.0;
    double prevBgRefPJ_ = 0.0;
    /** Running (exponentially smoothed) epoch power — the reading the
     *  power-cap rule sees. Replacement traffic arrives in bursts
     *  (tag-buffer fill -> batch PTE commit cadence), so the smoothing
     *  window must span several bursts or the policy would track the
     *  inter-burst baseline and flap across the cap. */
    double ewmaPowerWatts_ = 0.0;
    bool ewmaValid_ = false;
    static constexpr double kPowerEwmaAlpha = 0.1;
    /** Settling time of the incremental kinds (PowerCap, Qos): epochs
     *  to hold decisions after a transition completes. The EWMA is
     *  reseeded at completion, so the hold only needs to gather a
     *  couple of post-transition samples before deciding again. */
    std::uint64_t holdEpochs_ = 0;
    static constexpr std::uint64_t kSettleEpochs = 2;

    StatSet stats_;
    Counter &statStarted_;
    Counter &statCompleted_;
    Counter &statEpochs_;
    Counter &statDeferred_;
    Counter &statReassigns_;
};

} // namespace banshee

#endif // BANSHEE_RESIZE_RESIZE_CONTROLLER_HH
