#include "resize/resize_controller.hh"

#include <tuple>

#include "common/log.hh"
#include "common/units.hh"
#include "dram/dram_model.hh"
#include "telemetry/span_trace.hh"

namespace banshee {

ResizeController::ResizeController(EventQueue &eq, OsServices &os,
                                   const ResizeConfig &config)
    : eq_(eq), os_(os), config_(config), policy_(config.policy),
      layout_(config.hash),
      statStarted_(stats_.counter("resizesStarted")),
      statCompleted_(stats_.counter("resizesCompleted")),
      statEpochs_(stats_.counter("epochsEvaluated")),
      statDeferred_(stats_.counter("decisionsDeferred")),
      statReassigns_(stats_.counter("slicesReassigned"))
{
    sim_assert(config.enabled, "controller built with resize disabled");
    // Multi-tenant layout: apportion the slices over the quota
    // weights (largest remainder, one-slice floor), handed out in
    // contiguous id runs.
    if (partitioned()) {
        const auto counts =
            apportionSlices(config.tenantWeights, config.hash.numSlices);
        std::uint32_t next = 0;
        for (std::size_t t = 0; t < counts.size(); ++t) {
            for (std::uint32_t i = 0; i < counts[t]; ++i)
                layout_.setSliceTenant(next++, static_cast<TenantId>(t));
        }
    }
    // When the batch PTE update finishes, remap slots have been
    // harvested from every tag buffer: resume stalled drains now.
    os_.registerUpdateListener([this] {
        for (auto &d : domains_)
            d->kick();
    });
}

void
ResizeController::addHost(ResizeHost &host)
{
    domains_.push_back(
        std::make_unique<ResizeDomain>(eq_, host, layout_, config_));
    host.attachResizeDomain(domains_.back().get());
}

void
ResizeController::attachPowerModel(DramPowerModel *power)
{
    power_ = power;
    // Seed the epoch-power baseline from the model's *current*
    // accumulators and restart the EWMA at the next reading. Without
    // this, a (re-)attach mid-run would compute the first epoch's
    // power as (lifetime energy - 0) / epoch — an enormous phantom
    // draw that trips the cap policy into a spurious cold-start shed.
    ewmaValid_ = false;
    if (power_) {
        prevTotalPJ_ = power_->totalEnergyPJ(eq_.now());
        prevBgRefPJ_ = power_->energy().backgroundPJ() +
                       power_->energy().refreshPJ();
        power_->setGatedSliceFraction(gatedFractionFor(activeSlices()),
                                      eq_.now());
    }
}

void
ResizeController::attachSpanTrace(PageJournal *spans)
{
    spans_ = spans;
    tenantSpanTracks_.clear();
    if (!spans_)
        return;
    spanTrack_ = spans_->addControlTrack("resize");
    // ResizeDomains have no public name; index-named tracks keep the
    // drain batches of each memory controller apart.
    for (std::size_t i = 0; i < domains_.size(); ++i) {
        domains_[i]->setSpanTrace(
            spans_,
            spans_->addControlTrack("migration." + std::to_string(i)));
    }
    if (tenants_) {
        for (std::uint32_t t = 0; t < tenants_->numTenants(); ++t) {
            tenantSpanTracks_.push_back(spans_->addControlTrack(
                "tenant." +
                tenants_->config(static_cast<TenantId>(t)).name));
        }
    }
}

void
ResizeController::attachQosDevice(DramModel *dev)
{
    qosDev_ = dev;
    pushQosShares();
}

void
ResizeController::pushQosShares()
{
    if (!qosDev_ || !tenants_)
        return;
    // Bandwidth entitlement follows the live slice partition when one
    // exists (so every reassign/resize commit rebalances channel
    // credit alongside residency), else the configured quota weights.
    const std::uint32_t n = tenants_->numTenants();
    std::uint32_t ownedTotal = 0;
    for (std::uint32_t t = 0; t < n; ++t)
        ownedTotal += slicesOwnedBy(static_cast<TenantId>(t));
    if (ownedTotal == 0) {
        qosDev_->setQosShares(tenants_->weightShares());
        return;
    }
    std::array<double, kMaxTenants> shares{};
    for (std::uint32_t t = 0; t < n; ++t) {
        shares[t] =
            static_cast<double>(slicesOwnedBy(static_cast<TenantId>(t))) /
            static_cast<double>(ownedTotal);
    }
    qosDev_->setQosShares(shares);
}

void
ResizeController::onMeasureStart()
{
    epochIndex_ = 0;
    for (std::uint32_t t = 0; tenants_ && t < tenants_->numTenants(); ++t) {
        std::tie(prevTenantAccesses_[t], prevTenantMisses_[t]) =
            tenantDemand(static_cast<TenantId>(t));
    }
    // The measure boundary zeroes the power model's accumulators
    // (System::resetAllStats), so epoch energy deltas restart at 0.
    prevTotalPJ_ = 0.0;
    prevBgRefPJ_ = 0.0;
    ewmaValid_ = false;
    eq_.scheduleAfter(epochEvent_, config_.policy.epoch);
}

void
ResizeController::epochTick()
{
    ++statEpochs_;

    // ------------------------------------------------------- measure
    ResizeEpochStats epoch;
    if (power_) {
        const double totalPJ = power_->totalEnergyPJ(eq_.now());
        const double bgRefPJ = power_->energy().backgroundPJ() +
                               power_->energy().refreshPJ();
        const double epochNs = static_cast<double>(config_.policy.epoch) *
                               1e9 / kCoreFreqHz;
        // pJ / ns = mW.
        const double rawWatts =
            (totalPJ - prevTotalPJ_) / epochNs * 1e-3;
        epoch.bgRefreshWatts = (bgRefPJ - prevBgRefPJ_) / epochNs * 1e-3;
        prevTotalPJ_ = totalPJ;
        prevBgRefPJ_ = bgRefPJ;
        ewmaPowerWatts_ = ewmaValid_
                              ? kPowerEwmaAlpha * rawWatts +
                                    (1.0 - kPowerEwmaAlpha) *
                                        ewmaPowerWatts_
                              : rawWatts;
        ewmaValid_ = true;
        epoch.avgPowerWatts = ewmaPowerWatts_;
    }
    // Per-tenant demand deltas, kept current every epoch (even while
    // settling) so a post-transition decision sees one epoch's worth.
    if (tenants_) {
        epoch.tenants.resize(tenants_->numTenants());
        for (std::uint32_t t = 0; t < epoch.tenants.size(); ++t) {
            const TenantId id = static_cast<TenantId>(t);
            const auto [acc, mis] = tenantDemand(id);
            TenantEpochStats &ts = epoch.tenants[t];
            ts.accesses = acc - prevTenantAccesses_[t];
            ts.misses = mis - prevTenantMisses_[t];
            ts.ownedSlices = slicesOwnedBy(id);
            ts.weight = tenants_->weight(id);
            prevTenantAccesses_[t] = acc;
            prevTenantMisses_[t] = mis;
        }
    }

    // -------------------------------------------------------- settle
    // The incremental kinds (PowerCap, Qos) re-decide from fresh
    // measurements every epoch: epochs measured mid-transition (or
    // before the smoothed reading has settled on the new layout) are
    // transitional, so they adopt nothing.
    const bool settling = resizeInProgress() || holdEpochs_ > 0;
    if (holdEpochs_ > 0)
        --holdEpochs_;
    const bool scheduled =
        config_.policy.kind == ResizePolicyConfig::Kind::Schedule;

    // -------------------------------------------------------- decide
    if (scheduled || !settling) {
        const ResizeDecision d =
            policy_.decide(epochIndex_, epoch, activeSlices(), totalSlices());
        if (!d.empty()) {
            trace(Mark::Instant, "decision",
                  {{"reason", resizeReasonName(d.reason)},
                   {"from", activeSlices()},
                   {"to", d.targetActive.value_or(activeSlices())},
                   {"donor", d.donor},
                   {"receiver", d.receiver},
                   {"watts", epoch.avgPowerWatts},
                   {"capWatts", config_.policy.powerCapWatts}});
            pending_ = d;
        }
    }

    // --------------------------------------------------------- apply
    // A scheduled target that arrives while a previous transition is
    // still draining is deferred and retried every epoch until it
    // applies (or becomes moot), so scripted steps are never silently
    // lost. The incremental kinds decide only when idle.
    if (pending_) {
        if (apply(*pending_) || !scheduled ||
            pending_->targetActive == activeSlices()) {
            pending_.reset();
        } else {
            ++statDeferred_;
        }
    }

    ++epochIndex_;
    if (!epochsStopped_)
        eq_.scheduleAfter(epochEvent_, config_.policy.epoch);
}

std::pair<std::uint64_t, std::uint64_t>
ResizeController::tenantDemand(TenantId t) const
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    for (const auto &d : domains_) {
        accesses += d->host().demandAccessesOf(t);
        misses += d->host().demandMissesOf(t);
    }
    return {accesses, misses};
}

bool
ResizeController::apply(const ResizeDecision &d)
{
    return d.targetActive
               ? requestResize(*d.targetActive, d.donor, d.receiver)
               : requestReassign(d.donor, d.receiver);
}

void
ResizeController::trace(Mark mark, const char *name,
                        std::initializer_list<TraceField> fields)
{
    if (!spans_)
        return;
    switch (mark) {
    case Mark::Instant:
        spans_->controlInstant(spanTrack_, name, eq_.now(), fields);
        break;
    case Mark::Begin:
        spans_->controlBegin(spanTrack_, name, eq_.now(), fields);
        break;
    case Mark::End:
        spans_->controlEnd(spanTrack_, eq_.now(), fields);
        break;
    }
}

void
ResizeController::startTransition(const char *kind, Counter &completions,
                                  std::initializer_list<TraceField> fields)
{
    trace(Mark::Begin, kind, fields);
    pendingDomains_ = static_cast<std::uint32_t>(domains_.size());
    for (auto &d : domains_) {
        d->drain([this, &completions, kind] {
            sim_assert(pendingDomains_ > 0, "stray drain completion");
            if (--pendingDomains_ == 0)
                commitTransition(completions, kind);
        });
    }
}

void
ResizeController::commitTransition(Counter &completions, const char *kind)
{
    ++completions;
    // Entitlements may have moved with the slices.
    pushQosShares();
    trace(Mark::End, kind,
          {{"activeSlices", activeSlices()},
           {"pagesMigrated", pagesMigrated()},
           {"tagBufferStalls", tagBufferStalls()}});
    // Quota marks on every tenant track: the commit is when a
    // reassigned slice actually changes hands.
    for (std::uint32_t t = 0; t < tenantSpanTracks_.size(); ++t) {
        spans_->controlInstant(
            tenantSpanTracks_[t], "quota", eq_.now(),
            {{"slices", slicesOwnedBy(static_cast<TenantId>(t))}});
    }
    holdEpochs_ = kSettleEpochs;
    // Reseed the running average: samples taken under the old slice
    // layout (and the drain's migration bursts) would otherwise
    // dominate the slow EWMA for ~1/alpha epochs and drive redundant
    // decisions.
    ewmaValid_ = false;
    if (power_) {
        power_->setGatedSliceFraction(gatedFractionFor(activeSlices()),
                                      eq_.now());
    }
    // Fold the transition's remaps into the PTEs promptly so TLBs
    // reconverge on the new layout.
    os_.requestPteUpdate();
}

bool
ResizeController::requestResize(std::uint32_t targetSlices, TenantId donor,
                                TenantId receiver)
{
    const std::uint32_t from = activeSlices();
    if (resizeInProgress() || targetSlices == from || targetSlices < 1 ||
        targetSlices > totalSlices()) {
        return false;
    }
    ++statStarted_;
    inform("resize: %u -> %u active slices (%s)", from, targetSlices,
           resizeStrategyName(config_.strategy));

    if (targetSlices < from) {
        // Two passes: the donor's slices first (QoS shed), then any
        // active slice, both highest-id first for determinism. In a
        // partitioned layout the unrestricted pass still respects a
        // one-slice floor per tenant: a tenant-blind decision (a
        // schedule step or a PowerCap shed) composed with quotas must
        // not deactivate a tenant's last slice — that would silently
        // void its quota through the sliceOf cross-tenant fallback.
        // The shrink then simply stops short of the target.
        auto deactivate = [&](TenantId owner) {
            for (std::uint32_t s = totalSlices();
                 s-- > 0 && activeSlices() > targetSlices;) {
                if (!layout_.isActive(s))
                    continue;
                if (owner != kNoTenant && layout_.sliceTenant(s) != owner)
                    continue;
                if (partitioned() &&
                    slicesOwnedBy(layout_.sliceTenant(s)) <=
                        kMinSlicesPerTenant)
                    continue;
                layout_.setActive(s, false);
            }
        };
        if (donor != kNoTenant)
            deactivate(donor);
        deactivate(kNoTenant);
    } else {
        // The incoming slices must power up (and refresh) before any
        // data lands in them. Shrinking slices stay powered until the
        // drain finishes — they hold live data throughout.
        if (power_) {
            power_->setGatedSliceFraction(gatedFractionFor(targetSlices),
                                          eq_.now());
        }
        for (std::uint32_t s = 0;
             s < totalSlices() && activeSlices() < targetSlices; ++s) {
            if (!layout_.isActive(s)) {
                layout_.setActive(s, true);
                if (partitioned() && receiver != kNoTenant)
                    layout_.setSliceTenant(s, receiver);
            }
        }
    }

    startTransition("resize", statCompleted_,
                    {{"from", from},
                     {"to", targetSlices},
                     {"strategy", resizeStrategyName(config_.strategy)},
                     {"donor", donor},
                     {"receiver", receiver}});
    return true;
}

bool
ResizeController::requestReassign(TenantId donor, TenantId receiver)
{
    if (resizeInProgress() || donor == receiver || donor == kNoTenant ||
        receiver == kNoTenant || domains_.empty()) {
        return false;
    }
    // The arbiter checks the floor before proposing, but this entry
    // point is public (external quota managers): never strip a donor
    // below its slice floor — quota is a guarantee, not a default.
    if (slicesOwnedBy(donor) <= kMinSlicesPerTenant)
        return false;
    // The donor's highest-id active slice changes hands; it owns more
    // than the floor, so the walk finds one.
    std::uint32_t slice = totalSlices() - 1;
    while (!layout_.isActive(slice) || layout_.sliceTenant(slice) != donor)
        --slice;
    inform("qos: slice %u moves tenant %u -> %u", slice, donor, receiver);

    layout_.setSliceTenant(slice, receiver);
    startTransition("reassign", statReassigns_,
                    {{"slice", slice},
                     {"donor", donor},
                     {"receiver", receiver}});
    return true;
}

void
ResizeController::verifyResidencyConsistent()
{
    for (auto &d : domains_)
        d->host().verifyResidencyConsistent();
}

void
ResizeController::resetStats()
{
    stats_.reset();
    for (auto &d : domains_)
        d->resetStats();
}

std::uint64_t
ResizeController::pagesMigrated() const
{
    std::uint64_t n = 0;
    for (const auto &d : domains_)
        n += d->pagesDrained();
    return n;
}

std::uint64_t
ResizeController::dirtyPagesMigrated() const
{
    std::uint64_t n = 0;
    for (const auto &d : domains_)
        n += d->dirtyPagesDrained();
    return n;
}

std::uint64_t
ResizeController::tagBufferStalls() const
{
    std::uint64_t n = 0;
    for (const auto &d : domains_)
        n += d->tagBufferStalls();
    return n;
}

} // namespace banshee
