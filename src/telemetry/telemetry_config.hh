/**
 * @file
 * Configuration of the epoch-resolved telemetry subsystem.
 *
 * Disabled by default: with enabled == false the System builds no
 * Telemetry, schedules no sampling events and attaches no histogram
 * hooks, so the simulated machine (and every bench's --json output)
 * is bit-identical to a build without telemetry. Enabled without a
 * span trace it is in-memory only (RunResult::histograms); with one,
 * every epoch sample is also written into the run's trace file.
 */

#ifndef BANSHEE_TELEMETRY_TELEMETRY_CONFIG_HH
#define BANSHEE_TELEMETRY_TELEMETRY_CONFIG_HH

#include "common/types.hh"
#include "common/units.hh"

namespace banshee {

struct TelemetryConfig
{
    bool enabled = false;

    /**
     * Sampling epoch in core cycles. Defaults to the resize
     * subsystem's policy epoch so metric samples line up with resize /
     * power-cap / QoS decisions in the trace.
     */
    Cycle epochCycles = usToCycles(20.0);
};

} // namespace banshee

#endif // BANSHEE_TELEMETRY_TELEMETRY_CONFIG_HH
