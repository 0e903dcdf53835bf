/**
 * @file
 * DRAM channel scheduler configuration (MemSystemParams::inPkgSched).
 *
 * Every DramChannel runs one selector: write-drain hysteresis picks
 * the read or the write queue, then an FR-FCFS scan over the first
 * @c window queued requests issues the one whose data can reach the
 * bus earliest (row hits win, arrival order breaks ties). The default
 * config is the stock scheduler: no age caps, window 16, 48/16 drain
 * watermarks, no credits.
 *
 * The QoS preset (SystemConfig::withDramQos) turns on the knobs that
 * decouple tenants. Slice quotas guarantee *residency* but not
 * *bandwidth*: FR-FCFS favors whichever tenant happens to be
 * streaming row hits, and drain hysteresis puts no bound on an
 * individual write's wait, so one tenant's posted writes can park
 * behind another's read stream (the finding the tenant bench
 * quantifies). The preset layers three mechanisms on the same pick:
 *
 *  - per-tenant bandwidth credits (@c qos): every epoch each tenant's
 *    credit resets to its entitlement share of the channel's epoch
 *    bytes; issued requests charge their tenant, and while any
 *    credit-positive tenant has an issuable request it wins over
 *    tenants that exhausted theirs. Arbitration is work-conserving:
 *    with no credit-positive contender the bandwidth-optimal request
 *    issues anyway (idle bus cycles are never spent "enforcing" a
 *    budget nobody else wants);
 *  - an age-bounded FR-FCFS pick (@c readAgeCap, @c writeAgeCap): the
 *    oldest queued request beats any row hit once its wait exceeds
 *    the cap, bounding the starvation row-hit favoritism can inflict
 *    on a low-locality tenant;
 *  - a bounded write-drain age (@c writeAgeCap): a write parked past
 *    its cap forces a drain even while reads keep arriving, so posted
 *    writes (which pin core MSHR slots) cannot wait on another
 *    tenant's read stream forever.
 *
 * With every knob at its default the channel issues exactly what the
 * stock FR-FCFS scheduler did, so seed-default runs are byte-identical
 * (the ext_tenant md5 guard).
 */

#ifndef BANSHEE_DRAM_SCHED_CONFIG_HH
#define BANSHEE_DRAM_SCHED_CONFIG_HH

#include <cstdint>

#include "common/types.hh"

namespace banshee {

struct DramSchedConfig
{
    /** Per-tenant bandwidth credits plus grant/defer accounting. Off:
     *  every request is eligible and nothing is charged. */
    bool qos = false;

    /** Credit replenish period, in core cycles. */
    Cycle epochCycles = 8192;

    /**
     * Channel data bytes granted per epoch, split over the tenant
     * entitlement shares. 0 derives the channel's full epoch
     * bandwidth from its bus width (busBytesPerCycle per DRAM cycle),
     * i.e. credits only bind when tenants contend.
     */
    std::uint64_t bytesPerEpoch = 0;

    /** A read older than this (core cycles) beats any row hit;
     *  0 disables the read age bound. */
    Cycle readAgeCap = 0;

    /** A write waiting longer than this (core cycles) forces a write
     *  drain; it also serves as the write-queue age bound while
     *  draining. 0 disables the bound. */
    Cycle writeAgeCap = 0;

    /** Queue positions the FR-FCFS pick scans. The QoS preset widens
     *  it to 64 so a credit-positive tenant's request is findable
     *  behind a flooding tenant's burst. */
    std::uint32_t window = 16;

    /**
     * Write-drain watermarks: start draining at @c writeDrainHigh
     * queued writes, stop at @c writeDrainLow. Shorter drain batches
     * trade write-side row locality for read tail latency: every read
     * that lands mid-drain waits out the rest of the batch, so the
     * high-to-low gap is the largest drain-induced read stall the
     * channel can inflict.
     */
    std::uint32_t writeDrainHigh = 48;
    std::uint32_t writeDrainLow = 16;
};

} // namespace banshee

#endif // BANSHEE_DRAM_SCHED_CONFIG_HH
