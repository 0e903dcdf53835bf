/**
 * @file
 * Full-system assembly and the warmup/measure run loop.
 *
 * A System wires one SystemConfig into a complete simulated machine:
 * event queue, page table + OS services, DRAM devices + memory
 * controllers + the selected DRAM-cache scheme, cache hierarchy,
 * TLBs, workload generators and cores. run() executes a warmup phase
 * (caches and predictors learn, statistics discarded) followed by a
 * measured phase, and returns a RunResult with everything the
 * benches and tests need.
 */

#ifndef BANSHEE_SIM_SYSTEM_HH
#define BANSHEE_SIM_SYSTEM_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/event_queue.hh"
#include "cpu/core_model.hh"
#include "cpu/tlb.hh"
#include "dram/traffic.hh"
#include "mem/mem_system.hh"
#include "os/os_services.hh"
#include "os/page_table.hh"
#include "resize/resize_controller.hh"
#include "schemes/batman.hh"
#include "sim/system_config.hh"
#include "telemetry/histogram.hh"
#include "tenant/tenant_map.hh"
#include "workload/pattern.hh"

namespace banshee {

class Telemetry; // telemetry/telemetry.hh

/** One tenant's share of a multi-tenant run's measured statistics. */
struct TenantRunStats
{
    std::string name;
    double weight = 0.0;        ///< configured quota weight
    std::uint32_t cores = 0;

    std::uint64_t instructions = 0;
    Cycle cycles = 0;           ///< slowest of the tenant's cores
    double ipc = 0.0;

    std::uint64_t dramCacheAccesses = 0;
    std::uint64_t dramCacheMisses = 0;
    double missRate = 0.0;

    /** DRAM bytes attributed to this tenant's requests. */
    std::uint64_t inPkgBytes = 0;
    std::uint64_t offPkgBytes = 0;
    /** Dynamic DRAM energy attributed to this tenant's requests. */
    double inPkgDynPJ = 0.0;
    double offPkgDynPJ = 0.0;

    /** Slices owned at the end of the run (0 when unpartitioned). */
    std::uint32_t slicesOwned = 0;

    /** QoS scheduler accounting on the in-package device (zero when
     *  the scheduler is off; see TrafficStats). */
    std::uint64_t qosGrants = 0;
    std::uint64_t qosDefers = 0;
};

/** Everything measured over the measured phase of one run. */
struct RunResult
{
    std::string workload;
    std::string scheme;

    std::uint64_t instructions = 0;
    Cycle cycles = 0;       ///< slowest core's measured cycles
    double ipc = 0.0;       ///< aggregate instructions / cycles

    std::uint64_t dramCacheAccesses = 0;
    std::uint64_t dramCacheMisses = 0;
    double missRate = 0.0;
    double mpki = 0.0;      ///< DRAM cache misses per kilo-instruction
    double llcMpki = 0.0;

    /** Bytes per category (see TrafficCat). */
    std::array<std::uint64_t, kNumTrafficCats> inPkgBytes{};
    std::array<std::uint64_t, kNumTrafficCats> offPkgBytes{};

    /** Dynamic DRAM energy per category (pJ; see DramPowerModel). */
    std::array<double, kNumTrafficCats> inPkgDynPJ{};
    std::array<double, kNumTrafficCats> offPkgDynPJ{};
    double inPkgBackgroundPJ = 0.0;
    double inPkgRefreshPJ = 0.0;
    double inPkgActiveStandbyPJ = 0.0;
    double offPkgBackgroundPJ = 0.0;
    double offPkgRefreshPJ = 0.0;
    double offPkgActiveStandbyPJ = 0.0;
    /** Mean power over the measured phase (W). */
    double inPkgAvgPowerWatts = 0.0;
    double offPkgAvgPowerWatts = 0.0;

    double inPkgBusUtil = 0.0;
    double offPkgBusUtil = 0.0;
    double avgFetchLatency = 0.0; ///< mean LLC-miss service cycles

    std::uint64_t pteUpdateRuns = 0;
    std::uint64_t tlbShootdowns = 0;
    std::uint64_t tagBufferHits = 0;
    std::uint64_t tagBufferMisses = 0;
    std::uint64_t replacementsBlocked = 0;

    // Dynamic-resize transition statistics (zero when disabled).
    std::uint64_t resizesStarted = 0;
    std::uint64_t resizesCompleted = 0;
    std::uint64_t pagesMigrated = 0;
    std::uint64_t dirtyPagesMigrated = 0;
    std::uint32_t finalActiveSlices = 0;
    std::uint64_t qosReassigns = 0; ///< slice ownership transfers

    /** The in-package QoS channel scheduler was enabled for this run
     *  (gates the per-tenant grant/defer fields in JSON output). */
    bool qosSchedEnabled = false;

    /** Per-tenant splits (empty for single-tenant runs). */
    std::vector<TenantRunStats> tenants;

    /** Latency/occupancy distribution summaries over the measured
     *  phase (empty unless telemetry was enabled). */
    std::vector<HistogramSummary> histograms;

    double inPkgBpi(TrafficCat c) const;
    double offPkgBpi(TrafficCat c) const;
    double inPkgTotalBpi() const;
    double offPkgTotalBpi() const;

    /** Whole-memory-system DRAM energy over the measured phase (pJ). */
    double totalEnergyPJ() const;
    /** Total DRAM energy per instruction (pJ/instr), the paper's
     *  energy-efficiency axis. */
    double energyPerInstrPJ() const;
    /** In-package background + refresh energy (pJ) — what slice
     *  power-gating saves. */
    double inPkgBgRefreshPJ() const;
};

class System
{
  public:
    explicit System(const SystemConfig &config);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Warmup + measured phase; returns the measured statistics. */
    RunResult run();

    // Component access for tests and examples.
    EventQueue &eventQueue() { return eq_; }
    PageTableManager &pageTable() { return *pageTable_; }
    OsServices &os() { return *os_; }
    MemSystem &memSystem() { return *mem_; }
    CacheHierarchy &hierarchy() { return *hierarchy_; }
    CoreModel &core(CoreId id) { return *cores_[id]; }
    Tlb &tlb(CoreId id) { return *tlbs_[id]; }
    const SystemConfig &config() const { return config_; }

    /** Resize coordination, or nullptr when resizing is disabled. */
    ResizeController *resizeController() { return resize_.get(); }

    /** Events executed on this system's event queue (a
     *  deterministic work counter, read by simbench). */
    std::uint64_t totalEventsExecuted() const { return eq_.eventsExecuted(); }

    /** Zero every statistic (called at the warmup boundary). */
    void resetAllStats();

  private:
    /** Build the telemetry façade and attach every hook. */
    void buildTelemetry();

    /** Build the span-trace journal and attach every hook. */
    void buildSpanTrace();

    /** Run all cores until each reaches @p instrLimit. */
    void runPhase(std::uint64_t instrLimit);

    RunResult collect(const std::vector<Cycle> &phaseStartCycle,
                      const std::vector<std::uint64_t> &phaseStartInstr,
                      Cycle phaseStartGlobal);

    SystemConfig config_;
    /** The scheme's page size in address bits: Banshee's pageBits,
     *  else 4 KB. It sets the controller striping and span sampling. */
    std::uint32_t pageBits_;
    EventQueue eq_;
    std::unique_ptr<TenantMap> tenants_;
    std::unique_ptr<PageTableManager> pageTable_;
    std::unique_ptr<OsServices> os_;
    std::unique_ptr<MemSystem> mem_;
    std::unique_ptr<BatmanController> batman_;
    std::unique_ptr<ResizeController> resize_;
    std::unique_ptr<Telemetry> telemetry_;
    std::unique_ptr<PageJournal> spans_;
    std::unique_ptr<CacheHierarchy> hierarchy_;
    std::vector<std::unique_ptr<Tlb>> tlbs_;
    std::vector<std::unique_ptr<AccessPattern>> patterns_;
    std::vector<std::unique_ptr<CoreModel>> cores_;
    std::uint32_t parkedCount_ = 0;
};

} // namespace banshee

#endif // BANSHEE_SIM_SYSTEM_HH
