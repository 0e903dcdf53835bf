/**
 * @file
 * Memory system: the DRAM devices plus one memory controller (and one
 * scheme instance) per in-package channel. Physical pages are striped
 * across controllers at page granularity (paper Section 2 assumption).
 */

#ifndef BANSHEE_MEM_MEM_SYSTEM_HH
#define BANSHEE_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "dram/dram_model.hh"
#include "mem/request.hh"
#include "mem/scheme.hh"

namespace banshee {

struct MemSystemParams
{
    std::uint32_t numMcs = 4;            ///< = in-package channels
    std::uint32_t numOffPkgChannels = 1;
    std::uint64_t inPkgCapacity = 128ull << 20;
    /**
     * Page-to-MC striping granularity in address bits. 12 (4 KB) by
     * default; large-page mode raises it to 21 so a 2 MB page maps to
     * a single controller (paper Section 4.3).
     */
    std::uint32_t mcStripeBits = kPageBits;
    DramTiming inPkgTiming;
    DramTiming offPkgTiming;
    /** Energy knobs (see power/power_params.hh): die-stacked device
     *  vs DDR pins differ mainly in interface pJ/bit. */
    DramPowerParams inPkgPower = DramPowerParams::inPackage();
    DramPowerParams offPkgPower = DramPowerParams::offPackage();
    bool hasInPkg = true;   ///< false for NoCache
    bool hasOffPkg = true;  ///< false for CacheOnly
    /** Channel scheduler of the in-package device, the tier tenants
     *  contend on (SystemConfig::withDramQos sets the QoS preset).
     *  The off-package device always runs the stock scheduler. */
    DramSchedConfig inPkgSched;
};

class MemSystem : public MemBackend
{
  public:
    MemSystem(EventQueue &eq, const MemSystemParams &params);

    /** Multi-tenant runs: attach the ownership map before
     *  buildSchemes so every scheme can attribute traffic. */
    void setTenantMap(const TenantMap *tenants) { tenants_ = tenants; }

    /** Attach span tracing: demand fetches of sampled pages emit
     *  end-to-end issue->complete spans. Null = off. */
    void setSpanTrace(PageJournal *spans) { spans_ = spans; }

    /** Install the scheme instances (one per MC) from a factory. */
    void buildSchemes(const SchemeFactory &factory,
                      PageTableManager *pageTable, OsServices *os,
                      std::uint64_t seed);

    // MemBackend interface (called by the LLC).
    /**
     * Each in-flight fetch keeps its record (issue cycle, span page,
     * the caller's @p done) in a slot of a recycled vector, so the
     * closure handed to the scheme carries only this and the slot
     * index and fits std::function's inline storage: no LLC miss
     * allocates.
     */
    void fetchLine(LineAddr line, const MappingInfo &mapping, CoreId core,
                   MissDoneFn done) override;
    void writebackLine(LineAddr line) override;

    std::uint32_t
    mcOf(LineAddr line) const
    {
        return static_cast<std::uint32_t>(
            (lineToAddr(line) >> params_.mcStripeBits) % params_.numMcs);
    }

    DramModel *inPkg() { return inPkg_.get(); }
    DramModel *offPkg() { return offPkg_.get(); }

    DramCacheScheme &scheme(std::uint32_t mc) { return *schemes_[mc]; }
    std::uint32_t numMcs() const { return params_.numMcs; }

    /** Sum of demand accesses / misses over all MCs. */
    std::uint64_t totalAccesses() const;
    std::uint64_t totalMisses() const;

    /** Mean LLC-miss service latency (core cycles) this phase. */
    double
    avgFetchLatency() const
    {
        const std::uint64_t n = statFetchesCompleted_.value();
        return n == 0 ? 0.0
                      : static_cast<double>(statFetchLatencyTotal_.value()) /
                            static_cast<double>(n);
    }

    void resetStats();

  private:
    /** One in-flight demand fetch. */
    struct Fetch
    {
        Cycle issued = 0;
        /** The journal when the fetch's page is sampled, else null. */
        PageJournal *spans = nullptr;
        PageNum spanPage = 0;
        MissDoneFn done;
    };

    /** Account fetch @p slot's completion, free it, then call back. */
    void fetchDone(std::uint32_t slot, Cycle when);

    EventQueue &eq_;
    MemSystemParams params_;
    const TenantMap *tenants_ = nullptr;
    PageJournal *spans_ = nullptr;
    std::unique_ptr<DramModel> inPkg_;
    std::unique_ptr<DramModel> offPkg_;
    std::vector<std::unique_ptr<DramCacheScheme>> schemes_;
    std::vector<Fetch> fetches_;
    std::vector<std::uint32_t> freeFetches_;

    StatSet stats_;
    Counter &statFetchesCompleted_;
    Counter &statFetchLatencyTotal_;
};

} // namespace banshee

#endif // BANSHEE_MEM_MEM_SYSTEM_HH
