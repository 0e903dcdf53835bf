#include "os/os_services.hh"

#include "common/log.hh"

namespace banshee {

void
OsServices::requestPteUpdate()
{
    if (updateInProgress_)
        return;
    updateInProgress_ = true;
    ++statUpdates_;

    // The interrupt handler runs on one randomly chosen core (the
    // degenerate no-core test configuration just commits). At most
    // one update is in flight, so the routine completion is one
    // reusable event.
    updateHasHandler_ = !cores_.empty();
    if (updateHasHandler_) {
        updateHandler_ = static_cast<CoreId>(rng_.nextBelow(cores_.size()));
        cores_[updateHandler_].stall(costs_.pteUpdateRoutine);
    }
    eq_.scheduleAfter(updateDoneEvent_, costs_.pteUpdateRoutine);
}

void
OsServices::updateDone()
{
    // Routine body: read all tag buffers, commit each remapped page's
    // new bits to its PTE, then shoot down all TLBs.
    for (auto &harvest : harvesters_)
        for (const PteUpdate &u : harvest())
            pageTable_.commit(u.page, u.mapping);
    if (updateHasHandler_)
        shootdownAll(updateHandler_);
    finishUpdate();
}

void
OsServices::shootdownAll(CoreId initiator)
{
    ++statShootdowns_;
    for (CoreId c = 0; c < cores_.size(); ++c) {
        cores_[c].stall(c == initiator ? costs_.shootdownInitiator
                                       : costs_.shootdownSlave);
        cores_[c].tlbFlush();
    }
}

void
OsServices::finishUpdate()
{
    updateInProgress_ = false;
    for (auto &listener : updateListeners_)
        listener();
}

} // namespace banshee
