/**
 * @file
 * A deterministic global event queue built on intrusive tick events.
 *
 * Events scheduled for the same cycle execute in schedule order
 * (FIFO tie-break via a sequence number), so simulations are exactly
 * reproducible regardless of container internals.
 *
 * Two event flavors share one clock:
 *
 *  - TickEvent: an intrusive, preallocated, cancellable and
 *    re-armable event owned by a component (a DRAM channel's
 *    scheduler kick, a core's activation, an epoch clock). Arming
 *    one allocates nothing; re-arming supersedes the previous arm in
 *    O(1) and the stale queue entry is dropped when it surfaces.
 *  - one-shot CycleFn closures (schedule(cycle, fn)), the flavor DRAM
 *    completions use: the callback receives the cycle it fires at,
 *    so a completion moves its DramDoneFn straight into a pooled
 *    event node. Nodes are recycled through a freelist, so
 *    steady-state completion traffic allocates nothing.
 *
 * Storage is two-level: a timing wheel of kWheelSlots one-cycle
 * buckets covers the near future, where virtually all simulation
 * events live (bus transfers, bank timings, core activations), and a
 * binary heap holds the far future (epoch clocks, OS routines). Far
 * events migrate into the wheel exactly once, when the window
 * reaches them; an occupancy bitmap makes finding the next nonempty
 * bucket O(slots/64) worst case and O(1) in practice.
 *
 * Lifetime: a TickEvent unregisters itself from its queue on
 * destruction, and every component's events must be destroyed before
 * the EventQueue they were scheduled on (a System declares the queue
 * first, so it is destroyed last).
 */

#ifndef BANSHEE_COMMON_EVENT_QUEUE_HH
#define BANSHEE_COMMON_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace banshee {

class EventQueue;

/** Callable executed when an event fires. */
using EventFn = std::function<void()>;

/** One-shot callable that receives the cycle it fired at. */
using CycleFn = std::function<void(Cycle)>;

/**
 * An intrusive event: scheduling state (cycle, arm generation) lives
 * in the event itself, so arming, cancelling and re-arming touch no
 * allocator. The callback is fixed at construction (or one
 * setCallback before first use); what varies per arm is only *when*
 * it fires.
 *
 * Cancel and re-arm are O(1): the queue entry from a superseded arm
 * stays physically queued but is live only while the event is armed
 * for that entry's exact cycle, and is discarded the moment it is
 * popped otherwise — it is never executed, unlike the
 * closure-per-arm scheme this replaces, where every dead kick still
 * ran a staleness-filtering lambda.
 */
class TickEvent
{
    friend class EventQueue;

  public:
    TickEvent() = default;
    explicit TickEvent(EventFn fn) : fn_(std::move(fn)) {}
    ~TickEvent();

    TickEvent(const TickEvent &) = delete;
    TickEvent &operator=(const TickEvent &) = delete;

    /** Set (or replace) the callback; must not be armed. */
    void
    setCallback(EventFn fn)
    {
        sim_assert(!armed_, "callback change on an armed event");
        fn_ = std::move(fn);
    }

    /** True while scheduled and not yet fired or cancelled. */
    bool armed() const { return armed_; }

    /** Cycle the current arm fires at; meaningful only when armed. */
    Cycle when() const { return when_; }

    /** Disarm. O(1); safe when not armed. */
    void cancel();

  private:
    EventFn fn_;
    EventQueue *eq_ = nullptr; ///< queue holding physical entries
    Cycle when_ = 0;
    std::uint32_t pins_ = 0; ///< physical queue entries naming this
    bool armed_ = false;
};

/**
 * The two-level deterministic event queue. The simulator main loop
 * pops events until the queue drains or a stop condition is raised.
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time (cycle of the last event executed). */
    Cycle now() const { return now_; }

    //
    // Intrusive interface.
    //

    /**
     * Arm @p ev at absolute cycle @p when. Re-arming an armed event
     * moves it (the previous arm is superseded); re-arming at the
     * cycle it is already armed for keeps its FIFO position.
     * Scheduling in the past is a simulator bug.
     *
     * Positional contract: every actual arm appends a physical
     * entry, and an entry fires iff the event is still armed for
     * that entry's exact cycle when it surfaces. Re-arming back onto
     * a superseded entry's cycle therefore fires at the older
     * entry's position, not the back of the cycle. This is exactly
     * the semantics of the closure-per-arm scheme this replaces — a
     * filter closure fired at its own queue position whenever its
     * captured cycle matched the live arm — and keeps supersede /
     * re-arm patterns (the DRAM kick) bit-identical to it.
     */
    void schedule(TickEvent &ev, Cycle when);

    /** Arm @p ev @p delta cycles from now. */
    void
    scheduleAfter(TickEvent &ev, Cycle delta)
    {
        schedule(ev, now_ + delta);
    }

    //
    // One-shot interface (pooled nodes; see file comment).
    //

    /** Schedule @p fn at absolute cycle @p when; it receives the
     *  cycle it fires at. */
    void schedule(Cycle when, CycleFn fn);

    /** No armed events pending (stale entries do not count). */
    bool empty() const { return pending_ == 0; }

    /** Number of armed events pending. */
    std::size_t size() const { return pending_; }

    /**
     * Time of the next queued event, or kNoCycle when no armed event
     * is pending. May name a cycle holding only superseded far-heap
     * entries (run() skips through those). Non-const: drops verified
     * all-stale wheel slots it scans past.
     */
    Cycle nextEventCycle();

    /**
     * Execute events until the queue is empty or @p limit cycles have
     * been simulated (events at exactly @p limit still run). Returns
     * the number of events executed by this call.
     */
    std::uint64_t run(Cycle limit = kNoCycle);

    /** Ask run() to return after the current event completes. */
    void requestStop() { stopRequested_ = true; }

    /** Events executed over the queue's lifetime (a deterministic
     *  work counter; simbench reports it per simulated instruction). */
    std::uint64_t eventsExecuted() const { return executedTotal_; }

    /** Reset time and drop all pending events (for tests). */
    void reset();

  private:
    friend class TickEvent;

    /** Wheel span in cycles; power of two. Covers every near-future
     *  event class (bus transfers, bank prep, core activations, kick
     *  re-arms); epoch-scale clocks go to the far heap. */
    static constexpr std::size_t kWheelSlots = 4096;
    static constexpr std::size_t kBitmapWords = kWheelSlots / 64;

    /** A physical reference to an arm of @p ev; its cycle is implied
     *  by the wheel slot holding it. */
    struct Entry
    {
        TickEvent *ev;
    };

    struct FarEntry
    {
        Cycle when;
        std::uint64_t seq;
        TickEvent *ev;
    };

    /** Pooled node backing one one-shot closure. */
    struct OneShot
    {
        TickEvent ev;
        CycleFn fn;
        OneShot *nextFree = nullptr;
    };

    /** Live iff the event is armed for exactly the entry's cycle. */
    static bool
    live(const Entry &e, Cycle c)
    {
        return e.ev->armed_ && e.ev->when_ == c;
    }

    /** Append an entry for @p ev's current arm (wheel or far heap). */
    void insertEntry(TickEvent &ev);

    /** Move far-heap entries now inside the wheel window. */
    void migrateFar();

    /** First cycle in [wheelBase_, wheelBase_+kWheelSlots) whose slot
     *  is occupied, or kNoCycle. */
    Cycle firstWheelCycle() const;

    /** Fire one-shot node @p n and recycle it. */
    void fireOneShot(OneShot *n);

    OneShot *grabNode();

    /** Remove every physical entry naming @p ev (destructor path). */
    void purge(TickEvent *ev);

    void heapPush(FarEntry e);
    void heapPop();

    std::vector<std::vector<Entry>> slots_{kWheelSlots};
    std::uint64_t bitmap_[kBitmapWords] = {};
    Cycle wheelBase_ = 0; ///< wheel covers [wheelBase_, +kWheelSlots)
    std::vector<FarEntry> far_;

    std::vector<std::unique_ptr<OneShot>> nodes_;
    OneShot *freeList_ = nullptr;

    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
    std::size_t pending_ = 0;
    std::uint64_t executedTotal_ = 0;
    bool stopRequested_ = false;

    /** Slot being walked by run() and how many of its entries have
     *  been popped — those are excluded from purge scans. */
    std::size_t procIdx_ = kWheelSlots;
    std::size_t procPos_ = 0;
};

} // namespace banshee

#endif // BANSHEE_COMMON_EVENT_QUEUE_HH
