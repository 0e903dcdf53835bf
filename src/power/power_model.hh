/**
 * @file
 * State-based DRAM energy model for one DRAM device (all channels).
 *
 * The DRAM channels feed the model per command as they issue:
 * one ACT+PRE pair per row activation, burst + interface energy per
 * data transfer (attributed to the request's TrafficCat, with the tag
 * split charged to Tag exactly like traffic accounting), and the
 * active-standby delta over cycles the data bus moves data. The two
 * time-proportional components — the precharge-standby background
 * floor and refresh — are integrated lazily from the cycle clock, so
 * the model costs two multiplies per command and one catch-up
 * integration per query.
 *
 * Slice power gating: the resize subsystem reports the fraction of
 * the DRAM cache's slices that are powered down; that fraction of the
 * background floor and refresh power stops accruing (deactivated
 * slices need no refresh and can be put in a gated standby state).
 * The integration is piecewise: every gating change first settles
 * energy up to the switch cycle at the old fraction.
 *
 * Units: energies in picojoules, powers in watts, time in core
 * cycles (converted via kCoreFreqHz).
 */

#ifndef BANSHEE_POWER_POWER_MODEL_HH
#define BANSHEE_POWER_POWER_MODEL_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/dram_timing.hh"
#include "dram/traffic.hh"
#include "power/energy_stats.hh"
#include "power/power_params.hh"

namespace banshee {

class DramPowerModel
{
  public:
    DramPowerModel(const DramPowerParams &params, const DramTiming &timing,
                   std::uint32_t numChannels);

    // ------------------------------------------------- command hooks
    /** One row activation (and its eventual precharge). */
    void
    onActivate(TrafficCat cat, TenantId tenant = kNoTenant)
    {
        energy_.addDynamic(cat, actPrePJ_, tenant);
    }

    /**
     * One data burst of @p bytes; the @p tagBytes portion is charged
     * to TrafficCat::Tag, mirroring TrafficStats::add's split (the
     * whole burst stays attributed to the requesting tenant).
     */
    void
    onBurst(std::uint32_t bytes, std::uint32_t tagBytes, bool isWrite,
            TrafficCat cat, TenantId tenant = kNoTenant)
    {
        const double perByte = isWrite ? writePJPerByte_ : readPJPerByte_;
        if (tagBytes > 0)
            energy_.addDynamic(TrafficCat::Tag, perByte * tagBytes, tenant);
        energy_.addDynamic(cat, perByte * (bytes - tagBytes), tenant);
    }

    /** Data bus busy for @p coreCycles: active-standby delta. Kept
     *  out of the background bucket — it is not gateable. */
    void
    onBusBusy(Cycle coreCycles)
    {
        energy_.addActiveStandby(actStandbyDeltaPJPerCycle_ *
                                 static_cast<double>(coreCycles));
    }

    // ------------------------------------------------- slice gating
    /**
     * Fraction of the device's slices currently power-gated
     * (0 = fully on). Settles background/refresh up to @p now at the
     * old fraction first.
     */
    void setGatedSliceFraction(double fraction, Cycle now);

    double gatedSliceFraction() const { return gatedFraction_; }

    // ------------------------------------------------------- queries
    /** Integrate background/refresh up to @p now, so energy() is
     *  current at the end of a run. */
    void finalize(Cycle now);

    /** Accumulated energy since the last resetStats(). Background and
     *  refresh are current as of the last finalize()/query call. */
    const EnergyStats &energy() const { return energy_; }

    /** Mean device power over [resetStats, now]. */
    double averagePowerWatts(Cycle now);

    /** Total accumulated energy including background up to @p now. */
    double totalEnergyPJ(Cycle now);

    /** Present-rate background + refresh power draw (gating applied). */
    double
    backgroundRefreshWatts() const
    {
        return (backgroundFloorWatts_ + refreshWatts_) *
               (1.0 - gatedFraction_);
    }

    /** Zero all energy; integration restarts at @p now. The gating
     *  state is preserved (it is device state, not a statistic). */
    void resetStats(Cycle now);

    // Derived per-operation constants, exposed for tests.
    double actPrePJ() const { return actPrePJ_; }
    double readPJPerByte() const { return readPJPerByte_; }
    double writePJPerByte() const { return writePJPerByte_; }
    /** Ungated whole-device background floor (precharge standby). */
    double backgroundFloorWatts() const { return backgroundFloorWatts_; }
    /** Ungated whole-device average refresh power. */
    double refreshWatts() const { return refreshWatts_; }

  private:
    /** Accrue background floor + refresh over [lastIntegrate_, now]. */
    void integrateTo(Cycle now);

    EnergyStats energy_;
    double gatedFraction_ = 0.0;
    Cycle lastIntegrate_ = 0;
    Cycle statsStart_ = 0;

    // Derived constants (see power_params.hh for the formulas).
    double actPrePJ_;
    double readPJPerByte_;
    double writePJPerByte_;
    double actStandbyDeltaPJPerCycle_;
    double backgroundFloorWatts_;
    double refreshWatts_;
};

} // namespace banshee

#endif // BANSHEE_POWER_POWER_MODEL_HH
