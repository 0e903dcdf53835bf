/**
 * @file
 * Test harness that stands up the minimal surroundings a DRAM cache
 * scheme needs — event queue, in-/off-package DRAM, page table, OS
 * services — without cores or a cache hierarchy, so unit tests can
 * drive demandFetch/demandWriteback directly and inspect the exact
 * traffic each operation generates.
 */

#ifndef BANSHEE_TESTS_SCHEME_HARNESS_HH
#define BANSHEE_TESTS_SCHEME_HARNESS_HH

#include <memory>

#include "common/event_queue.hh"
#include "dram/dram_model.hh"
#include "mem/scheme.hh"
#include "os/os_services.hh"
#include "os/page_table.hh"

namespace banshee::testing {

class SchemeHarness
{
  public:
    explicit SchemeHarness(std::uint64_t cacheBytesPerMc = 8ull << 20,
                           std::uint32_t numMcs = 1)
    {
        inPkg = std::make_unique<DramModel>(eq, DramTiming{}, numMcs);
        offPkg = std::make_unique<DramModel>(eq, DramTiming{}, 1);
        os = std::make_unique<OsServices>(eq, pageTable);

        ctx.eq = &eq;
        ctx.inPkg = inPkg.get();
        ctx.offPkg = offPkg.get();
        ctx.mcId = 0;
        ctx.numMcs = numMcs;
        ctx.cacheBytesPerMc = cacheBytesPerMc;
        ctx.pageTable = &pageTable;
        ctx.os = os.get();
        ctx.seed = 12345;
    }

    /** Drain all pending DRAM events. */
    void drain() { eq.run(); }

    std::uint64_t
    inBytes(TrafficCat c) const
    {
        return inPkg->traffic().bytes(c);
    }

    std::uint64_t
    offBytes(TrafficCat c) const
    {
        return offPkg->traffic().bytes(c);
    }

    std::uint64_t inTotal() const { return inPkg->traffic().totalBytes(); }
    std::uint64_t offTotal() const { return offPkg->traffic().totalBytes(); }

    void
    resetTraffic()
    {
        inPkg->resetStats();
        offPkg->resetStats();
    }

    /**

     * Synchronous fetch: drives the scheme and drains the queue.
     * Returns the completion cycle of the demand data.
     */
    Cycle
    fetch(DramCacheScheme &scheme, LineAddr line,
          MappingInfo mapping = MappingInfo{})
    {
        Cycle doneAt = 0;
        scheme.demandFetch(line, mapping,
                           [&doneAt](Cycle when) { doneAt = when; });
        drain();
        return doneAt;
    }

    EventQueue eq;
    PageTableManager pageTable;
    std::unique_ptr<DramModel> inPkg;
    std::unique_ptr<DramModel> offPkg;
    std::unique_ptr<OsServices> os;
    SchemeContext ctx;
};

} // namespace banshee::testing

#endif // BANSHEE_TESTS_SCHEME_HARNESS_HH
