#include "power/power_model.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/units.hh"

namespace banshee {

namespace {

constexpr double kNsPerCoreCycle = 1e9 / kCoreFreqHz;

/** mA * V * ns = pJ; mA * V = mW; mW / 1000 = W. */
constexpr double kMilliwattToWatt = 1e-3;

} // namespace

DramPowerModel::DramPowerModel(const DramPowerParams &params,
                               const DramTiming &timing,
                               std::uint32_t numChannels)
{
    sim_assert(numChannels > 0, "power model needs >= 1 channel");
    const double chans = static_cast<double>(numChannels);
    const double tCkNs = timing.dramCycleCoreCycles * kNsPerCoreCycle;
    const double tRasNs = timing.scaledRAS() * tCkNs;
    const double tRcNs = (timing.scaledRAS() + timing.scaledRP()) * tCkNs;

    // One ACT+PRE pair: IDD0 over tRC minus the standby current that
    // would have flowed anyway (active standby during tRAS, precharge
    // standby during tRP).
    actPrePJ_ = params.vdd * (params.idd0 * tRcNs -
                              params.idd3n * tRasNs -
                              params.idd2n * (tRcNs - tRasNs));
    actPrePJ_ = std::max(actPrePJ_, 0.0);

    // Burst energy above active standby, per byte, plus interface.
    const double burstReadPJPerCycle =
        params.vdd * (params.idd4r - params.idd3n) * tCkNs;
    const double burstWritePJPerCycle =
        params.vdd * (params.idd4w - params.idd3n) * tCkNs;
    readPJPerByte_ = burstReadPJPerCycle / timing.busBytesPerCycle +
                     params.ioPJPerBit * 8.0;
    writePJPerByte_ = burstWritePJPerCycle / timing.busBytesPerCycle +
                      params.ioPJPerBit * 8.0;

    actStandbyDeltaPJPerCycle_ =
        params.vdd * (params.idd3n - params.idd2n) * kNsPerCoreCycle;

    backgroundFloorWatts_ =
        params.vdd * params.idd2n * kMilliwattToWatt * chans;
    refreshWatts_ = params.vdd * (params.idd5 - params.idd2n) *
                    (params.tRfcNs / params.tRefiNs) * kMilliwattToWatt *
                    chans;
}

void
DramPowerModel::integrateTo(Cycle now)
{
    if (now <= lastIntegrate_)
        return;
    const double ns =
        static_cast<double>(now - lastIntegrate_) * kNsPerCoreCycle;
    const double on = 1.0 - gatedFraction_;
    // W * ns = nJ; * 1000 = pJ.
    energy_.addBackground(backgroundFloorWatts_ * on * ns * 1e3);
    energy_.addRefresh(refreshWatts_ * on * ns * 1e3);
    lastIntegrate_ = now;
}

void
DramPowerModel::setGatedSliceFraction(double fraction, Cycle now)
{
    sim_assert(fraction >= 0.0 && fraction <= 1.0,
               "bad gated fraction %f", fraction);
    integrateTo(now);
    gatedFraction_ = fraction;
}

void
DramPowerModel::finalize(Cycle now)
{
    integrateTo(now);
}

double
DramPowerModel::totalEnergyPJ(Cycle now)
{
    integrateTo(now);
    return energy_.totalPJ();
}

double
DramPowerModel::averagePowerWatts(Cycle now)
{
    integrateTo(now);
    if (now <= statsStart_)
        return 0.0;
    const double ns =
        static_cast<double>(now - statsStart_) * kNsPerCoreCycle;
    // pJ / ns = mW.
    return energy_.totalPJ() / ns * kMilliwattToWatt;
}

void
DramPowerModel::resetStats(Cycle now)
{
    energy_.reset();
    lastIntegrate_ = now;
    statsStart_ = now;
}

} // namespace banshee
