/**
 * @file
 * OS-side machinery of Banshee's lazy TLB coherence (paper §3.4).
 *
 * When a Tag Buffer passes its fill threshold, hardware raises an
 * interrupt. A randomly chosen core runs the PTE-update routine: it
 * reads every tag buffer (memory mapped), writes each remapped page's
 * new cached/way bits into its PTE, then issues one system-wide TLB
 * shootdown and clears the remap bits. Replacements are locked while
 * the routine runs; demand accesses proceed unhindered.
 *
 * Costs are charged as core stalls with the paper's Table 3 numbers:
 * 20 us for the routine (swept in Table 5), 4 us for the shootdown
 * initiator and 1 us for every other core.
 */

#ifndef BANSHEE_OS_OS_SERVICES_HH
#define BANSHEE_OS_OS_SERVICES_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "os/page_table.hh"

namespace banshee {

struct OsCosts
{
    Cycle pteUpdateRoutine = usToCycles(20.0);
    Cycle shootdownInitiator = usToCycles(4.0);
    Cycle shootdownSlave = usToCycles(1.0);
};

class OsServices
{
  public:
    /** Stall a core for N cycles / flush its TLB. */
    struct CoreHooks
    {
        std::function<void(Cycle)> stall;
        std::function<void()> tlbFlush;
    };

    /**
     * Harvest callback registered by each Banshee MC: returns every
     * page whose remap bit is set, with its new PTE bits, and clears
     * those remap bits.
     */
    using HarvestFn = std::function<std::vector<PteUpdate>()>;

    /** Listener invoked every time a batch PTE update completes (the
     *  resize subsystem resumes stalled migrations from it). */
    using UpdateListenerFn = std::function<void()>;

    OsServices(EventQueue &eq, PageTableManager &pageTable,
               OsCosts costs = OsCosts{}, std::uint64_t seed = 7)
        : eq_(eq), pageTable_(pageTable), costs_(costs), rng_(seed),
          statUpdates_(stats_.counter("pteUpdateRuns")),
          statShootdowns_(stats_.counter("tlbShootdowns"))
    {
    }

    void registerCore(CoreHooks hooks) { cores_.push_back(std::move(hooks)); }

    void
    registerTagBufferHarvester(HarvestFn fn)
    {
        harvesters_.push_back(std::move(fn));
    }

    void
    registerUpdateListener(UpdateListenerFn fn)
    {
        updateListeners_.push_back(std::move(fn));
    }

    /**
     * Hardware interrupt: a tag buffer crossed its threshold. No-op if
     * an update is already in flight. Resizing calls it too (a resize
     * domain's drain, and the resize controller at transition end),
     * so resize remaps ride the same batch PTE-update/shootdown
     * routine as replacements instead of paying per-page shootdowns.
     */
    void requestPteUpdate();

    /** The routine is running; Banshee locks replacements meanwhile. */
    bool updateInProgress() const { return updateInProgress_; }

    /** Stall every core (used by the HMA software remapper). */
    void
    stallAllCores(Cycle cycles)
    {
        for (auto &c : cores_)
            c.stall(cycles);
    }

    /** System-wide shootdown with the Table 3 cost split. */
    void shootdownAll(CoreId initiator);

    StatSet &stats() { return stats_; }

    std::uint64_t updateRuns() const { return statUpdates_.value(); }
    std::uint64_t tlbShootdowns() const { return statShootdowns_.value(); }

  private:
    /** PTE-update routine body: harvest + commit + shootdown. */
    void updateDone();

    void finishUpdate();

    EventQueue &eq_;
    PageTableManager &pageTable_;
    OsCosts costs_;
    Rng rng_;
    std::vector<CoreHooks> cores_;
    std::vector<HarvestFn> harvesters_;
    std::vector<UpdateListenerFn> updateListeners_;
    bool updateInProgress_ = false;
    /** Handler core of the in-flight update; meaningful only when
     *  updateHasHandler_ (the no-core test path skips shootdowns). */
    CoreId updateHandler_ = 0;
    bool updateHasHandler_ = false;
    /** Completion of the in-flight PTE-update routine. At most one
     *  update is in flight (updateInProgress_), so one event. */
    TickEvent updateDoneEvent_{[this] { updateDone(); }};

    StatSet stats_;
    Counter &statUpdates_;
    Counter &statShootdowns_;
};

} // namespace banshee

#endif // BANSHEE_OS_OS_SERVICES_HH
