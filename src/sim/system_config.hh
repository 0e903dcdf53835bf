/**
 * @file
 * Full-system configuration (paper Tables 2 and 3) plus experiment
 * knobs. Two presets:
 *
 *  - scaledDefault(): the default for this repository's benches —
 *    same shape as the paper's system but with a 128 MB DRAM cache
 *    and proportionally scaled workload footprints, so every
 *    experiment runs in seconds while preserving the cache:footprint
 *    and bandwidth ratios the paper's conclusions depend on;
 *  - paperDefault(): the paper's 1 GB cache and full footprints (for
 *    long runs).
 */

#ifndef BANSHEE_SIM_SYSTEM_CONFIG_HH
#define BANSHEE_SIM_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

#include <vector>

#include "cache/hierarchy.hh"
#include "core/banshee.hh"
#include "cpu/core_model.hh"
#include "cpu/tlb.hh"
#include "mem/mem_system.hh"
#include "os/os_services.hh"
#include "resize/resize_config.hh"
#include "schemes/alloy.hh"
#include "schemes/batman.hh"
#include "schemes/hma.hh"
#include "telemetry/span_trace.hh"
#include "telemetry/telemetry_config.hh"
#include "tenant/tenant.hh"

namespace banshee {

enum class SchemeKind : std::uint8_t
{
    NoCache,
    CacheOnly,
    Alloy,     ///< fill probability from AlloyConfig (1.0 or 0.1)
    Unison,
    Tdc,
    Hma,
    Banshee
};

const char *schemeKindName(SchemeKind kind);

struct SystemConfig
{
    // Table 2.
    std::uint32_t numCores = 16;
    CoreParams core;
    HierarchyParams hierarchy;
    TlbParams tlb;
    MemSystemParams mem;
    OsCosts osCosts;

    // Scheme selection + per-scheme knobs (Table 3 for Banshee).
    SchemeKind scheme = SchemeKind::Banshee;
    AlloyConfig alloy;
    HmaConfig hma;
    BansheeConfig banshee;

    bool enableBatman = false;
    BatmanParams batman;

    /** Dynamic DRAM-cache resizing (Banshee scheme only). */
    ResizeConfig resize;

    /** Epoch-resolved telemetry (off by default: zero hot-path work). */
    TelemetryConfig telemetry;

    /** Sampled page-lifecycle span tracing (off by default). */
    SpanTraceConfig spans;

    /**
     * Multi-tenant mode: when non-empty, cores are split between the
     * tenants and each tenant's cores run its own workload over its
     * own private heap regions. See withTenants for the quota
     * (slice-partitioning) semantics.
     */
    std::vector<TenantConfig> tenants;

    // Workload + run control.
    std::string workload = "pagerank";
    double footprintScale = 1.0;
    std::uint64_t warmupInstrPerCore = 1'200'000;
    std::uint64_t measureInstrPerCore = 1'200'000;
    std::uint64_t seed = 42;

    /**
     * Scale the warmup budget with the workload's sweep length: when
     * the workload is a pure sequential sweep whose total footprint
     * fits the DRAM cache (libquantum), raise warmupInstrPerCore so
     * the measured window starts from steady-state residency
     * (two full passes). Streams larger than the cache have no steady
     * state to warm into and are left alone.
     */
    bool autoWarmup = false;

    /** Scaled default (128 MB cache) — see file comment. */
    static SystemConfig scaledDefault();

    /** Paper-sized system (1 GB cache, 8x footprints). */
    static SystemConfig paperDefault();

    /** Tiny system for unit tests (8 MB cache, 1/16 footprints). */
    static SystemConfig testDefault();

    /** Select the scheme. System derives the rest of the memory
     *  layout from it: which DRAM devices exist (NoCache has no
     *  in-package device, CacheOnly no off-package one) and the
     *  controller striping (the scheme's page size). */
    SystemConfig &withScheme(SchemeKind kind);

    /** Convenience for Alloy-1 vs Alloy-0.1. */
    SystemConfig &withAlloyFillProb(double p);

    /**
     * Enable resizing with a scripted schedule: shrink/grow to
     * @p targetSlices at measured-phase epoch @p epoch.
     */
    SystemConfig &withResizeStep(std::uint64_t epoch,
                                 std::uint32_t targetSlices,
                                 ResizeStrategy strategy =
                                     ResizeStrategy::ConsistentHash);

    /**
     * Enable resizing driven by an in-package power cap of @p watts
     * (ResizePolicyConfig::Kind::PowerCap), never shrinking below
     * @p minSlices.
     */
    SystemConfig &withPowerCap(double watts, std::uint32_t minSlices = 1);

    /**
     * Multi-tenant run: split the cores between @p list and run each
     * tenant's workload on its cores (Banshee scheme required for
     * quotas). With @p partition true (the default) the DRAM cache's
     * slices are apportioned over the tenant weights — each tenant's
     * quota is its share of the consistent-hash ring's points — and
     * page placement confines every tenant to its quota. With
     * @p partition false the tenants share the whole cache (the
     * unpartitioned baseline); per-tenant statistics still split.
     */
    SystemConfig &withTenants(std::vector<TenantConfig> list,
                              bool partition = true);

    /**
     * Enable the QoS arbiter on a tenant-partitioned cache: slice
     * ownership rebalances toward the quota weights, thrashing
     * tenants may borrow from cold ones (never below a tenant's
     * entitlement), and an optional in-package power cap of
     * @p capWatts sheds slices from the tenant furthest over quota.
     */
    SystemConfig &withQosArbiter(double capWatts = 0.0);

    /**
     * Put the in-package channel scheduler on its QoS preset:
     * per-tenant bandwidth credits on an epoch clock, age-bounded
     * FR-FCFS, a bounded write-drain age and a 64-entry window (see
     * dram/sched_config.hh). Drain watermarks of 0 keep the stock
     * 48/16. Off by default — seed-default runs stay byte-identical.
     */
    SystemConfig &withDramQos(Cycle epochCycles = 8192,
                              Cycle readAgeCap = 4096,
                              Cycle writeAgeCap = 16384,
                              std::uint32_t writeDrainHigh = 0,
                              std::uint32_t writeDrainLow = 0);

    /**
     * Enable epoch-resolved telemetry: metric samples and latency
     * histograms (RunResult::histograms). With a span trace as well,
     * every sample is written into the run's trace file.
     * @p epochCycles 0 keeps the default sampling cadence (the
     * ResizeController's 20 us epoch).
     */
    SystemConfig &withTelemetry(Cycle epochCycles = 0);

    /**
     * Enable causal page/request span tracing: 1/2^sampleShift of
     * page frames (deterministic seeded hash) record their full
     * lifecycle — access outcomes, FBR decisions, residency,
     * channel queueing vs service, migration, quota changes — as
     * Chrome trace-event JSON loadable in Perfetto. @p path may be a
     * directory (one trace per run label). See telemetry/span_trace.hh.
     */
    SystemConfig &withSpanTrace(std::string path,
                                std::uint32_t sampleShift = 6);
};

} // namespace banshee

#endif // BANSHEE_SIM_SYSTEM_CONFIG_HH
