/**
 * @file
 * Telemetry hooks the DRAM channel records into.
 *
 * dram_model.hh only forward-declares ChannelTelemetry and holds a
 * pointer that stays null while telemetry is disabled, so the DRAM
 * hot path pays one predictable branch per request when profiling is
 * off and the device model does not depend on the telemetry layer.
 */

#ifndef BANSHEE_TELEMETRY_DRAM_HOOKS_HH
#define BANSHEE_TELEMETRY_DRAM_HOOKS_HH

#include "telemetry/histogram.hh"
#include "tenant/tenant.hh"

namespace banshee {

/** Per-channel distributions, owned by the Telemetry facade. */
struct ChannelTelemetry
{
    /** Request sojourn: arrival to data-on-bus complete, in core
     *  cycles. Bank/bus service is near constant, so the tail of this
     *  distribution is queueing delay — the quantity the tenant bench
     *  showed slice quotas cannot govern. */
    Histogram queueLatency;

    /** Read / write queue depth observed at each enqueue. */
    Histogram readOccupancy;
    Histogram writeOccupancy;

    /** Wait (core cycles) of requests the QoS credit arbitration
     *  bypassed, recorded at each defer. Empty while the scheduler
     *  is off, so summaries omit it. */
    Histogram qosDeferAge;

    /** Device-level per-tenant sojourn histograms, indexed by
     *  tenantBucket(); shared by every channel of the device. Null
     *  when the device carries no tenant-attributed traffic. */
    Histogram *tenantQueueLatency = nullptr;
};

} // namespace banshee

#endif // BANSHEE_TELEMETRY_DRAM_HOOKS_HH
