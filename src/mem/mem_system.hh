/**
 * @file
 * Memory system: a router. It builds the DRAM devices and one memory
 * controller (one scheme instance) per in-package channel, and sends
 * each LLC fetch and writeback to the controller that owns its line.
 * Lines are striped across controllers at the scheme's page size, so
 * a page never spans two controllers (paper Sections 2 and 4.3).
 */

#ifndef BANSHEE_MEM_MEM_SYSTEM_HH
#define BANSHEE_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/event_queue.hh"
#include "dram/dram_model.hh"
#include "mem/request.hh"
#include "mem/scheme.hh"

namespace banshee {

struct MemSystemParams
{
    std::uint32_t numMcs = 4;            ///< = in-package channels
    std::uint32_t numOffPkgChannels = 1;
    std::uint64_t inPkgCapacity = 128ull << 20;
    DramTiming inPkgTiming;
    DramTiming offPkgTiming;
    /** Channel scheduler of the in-package device, the tier tenants
     *  contend on (SystemConfig::withDramQos sets the QoS preset).
     *  The off-package device always runs the stock scheduler. */
    DramSchedConfig inPkgSched;
};

class MemSystem : public MemBackend
{
  public:
    /**
     * @p stripeBits is the scheme's page size in address bits: each
     * 2^stripeBits-byte block of addresses belongs to one controller.
     * @p inPkg and @p offPkg say which devices to build (NoCache has
     * no in-package DRAM, CacheOnly no off-package DRAM). Each device
     * takes its energy knobs from DramPowerParams::inPackage() or
     * offPackage().
     */
    MemSystem(EventQueue &eq, const MemSystemParams &params,
              std::uint32_t stripeBits, bool inPkg, bool offPkg);

    /** Install the scheme instances (one per MC) from a factory.
     *  @p tenants (null for single-tenant runs) lets every scheme
     *  attribute traffic to its owner. */
    void buildSchemes(const SchemeFactory &factory,
                      PageTableManager *pageTable, OsServices *os,
                      const TenantMap *tenants, std::uint64_t seed);

    // MemBackend interface (called by the LLC): route to the line's
    // controller. The caller's @p done goes to the scheme unwrapped.
    void fetchLine(LineAddr line, const MappingInfo &mapping,
                   MissDoneFn done) override;
    void writebackLine(LineAddr line) override;

    std::uint32_t
    mcOf(LineAddr line) const
    {
        return static_cast<std::uint32_t>(
            (lineToAddr(line) >> stripeBits_) % params_.numMcs);
    }

    DramModel *inPkg() { return inPkg_.get(); }
    DramModel *offPkg() { return offPkg_.get(); }

    DramCacheScheme &scheme(std::uint32_t mc) { return *schemes_[mc]; }
    std::uint32_t numMcs() const { return params_.numMcs; }

    /** Sum of demand accesses / misses over all MCs. */
    std::uint64_t totalAccesses() const;
    std::uint64_t totalMisses() const;

    void resetStats();

  private:
    EventQueue &eq_;
    MemSystemParams params_;
    std::uint32_t stripeBits_;
    std::unique_ptr<DramModel> inPkg_;
    std::unique_ptr<DramModel> offPkg_;
    std::vector<std::unique_ptr<DramCacheScheme>> schemes_;
};

} // namespace banshee

#endif // BANSHEE_MEM_MEM_SYSTEM_HH
