#include "common/event_queue.hh"

#include <algorithm>

namespace banshee {

/*
 * Invariants (the determinism contract depends on them):
 *
 *  I1. wheelBase_ == now_ whenever control is outside run()'s
 *      advance step, so schedule(when >= now_) always lands at or
 *      after the window base.
 *  I2. A nonempty wheel slot holds entries for exactly one cycle:
 *      the unique c in [wheelBase_, wheelBase_+kWheelSlots) mapping
 *      to that slot. Cycles enter the window exactly once (the base
 *      only advances), skipped slots are verified stale and cleared
 *      before the base passes them, and far entries migrate at the
 *      moment their cycle enters the window — before any direct
 *      insert can target the slot.
 *  I3. Within a slot, entries appear in schedule order: far
 *      migrations pop the heap in (when, seq) order, and any entry
 *      scheduled after the cycle entered the window is appended
 *      behind every migrated one (it was scheduled later). Slot
 *      position is therefore global schedule order — the same-cycle
 *      FIFO contract.
 *  I4. An entry is live iff its event is armed and the event's armed
 *      cycle equals the entry's cycle. Every actual arm (not the
 *      same-cycle no-op) appends one physical entry; the first live
 *      entry popped fires the arm and disarms the event.
 *  I5. Stale entries stay physically queued until their cycle is
 *      reached (or their whole slot is verified stale). A re-arm back
 *      onto a stale entry's cycle makes that entry live again, so the
 *      event fires at the stale entry's (older) position — and if the
 *      callback re-arms to the same cycle, a second stale entry can
 *      fire it again later in the cycle. This reproduces, exactly,
 *      the closure-per-arm scheme this replaces: each closure was a
 *      filter running `if (armed && cycle == captured) fire()` at its
 *      own heap position.
 */

TickEvent::~TickEvent()
{
    if (armed_ || pins_ > 0) {
        sim_assert(eq_ != nullptr, "pinned event without a queue");
        eq_->purge(this);
    }
}

void
TickEvent::cancel()
{
    if (!armed_)
        return;
    armed_ = false;
    eq_->pending_--;
}

EventQueue::EventQueue() = default;

EventQueue::~EventQueue() = default;

void
EventQueue::schedule(TickEvent &ev, Cycle when)
{
    sim_assert(static_cast<bool>(ev.fn_), "tick event has no callback");
    sim_assert(when >= now_, "scheduling into the past (%llu < %llu)",
               static_cast<unsigned long long>(when),
               static_cast<unsigned long long>(now_));
    sim_assert(ev.eq_ == nullptr || ev.eq_ == this,
               "tick event bound to a different queue");
    // Re-arming at the armed cycle keeps the original FIFO position.
    if (ev.armed_ && ev.when_ == when)
        return;
    ev.eq_ = this;
    if (!ev.armed_) {
        ev.armed_ = true;
        pending_++;
    }
    ev.when_ = when;
    insertEntry(ev);
}

void
EventQueue::insertEntry(TickEvent &ev)
{
    ev.pins_++;
    if (ev.when_ - wheelBase_ < kWheelSlots) {
        const std::size_t idx = ev.when_ & (kWheelSlots - 1);
        slots_[idx].push_back(Entry{&ev});
        bitmap_[idx / 64] |= 1ull << (idx % 64);
    } else {
        heapPush(FarEntry{ev.when_, seq_++, &ev});
    }
}

EventQueue::OneShot *
EventQueue::grabNode()
{
    if (freeList_ != nullptr) {
        OneShot *n = freeList_;
        freeList_ = n->nextFree;
        n->nextFree = nullptr;
        return n;
    }
    nodes_.push_back(std::make_unique<OneShot>());
    OneShot *n = nodes_.back().get();
    // The callback is fixed for the node's lifetime; two captured
    // pointers fit std::function's inline storage, so arming a
    // recycled node never touches the allocator.
    n->ev.setCallback([this, n] { fireOneShot(n); });
    return n;
}

void
EventQueue::schedule(Cycle when, CycleFn fn)
{
    OneShot *n = grabNode();
    n->fn = std::move(fn);
    schedule(n->ev, when);
}

void
EventQueue::fireOneShot(OneShot *n)
{
    CycleFn fn = std::move(n->fn);
    n->fn = nullptr;
    // Recycle before invoking so the callback can schedule into the
    // freed node; our callable is already moved out.
    n->nextFree = freeList_;
    freeList_ = n;
    fn(now_);
}

void
EventQueue::heapPush(FarEntry e)
{
    far_.push_back(e);
    std::push_heap(far_.begin(), far_.end(),
                   [](const FarEntry &a, const FarEntry &b) {
                       return a.when != b.when ? a.when > b.when
                                               : a.seq > b.seq;
                   });
}

void
EventQueue::heapPop()
{
    std::pop_heap(far_.begin(), far_.end(),
                  [](const FarEntry &a, const FarEntry &b) {
                      return a.when != b.when ? a.when > b.when
                                              : a.seq > b.seq;
                  });
    far_.pop_back();
}

void
EventQueue::migrateFar()
{
    // Pull every far entry whose cycle has entered the window. Heap
    // pop order is (when, seq), and any future direct insert for
    // these cycles is appended later, so slot FIFO order holds (I3).
    // Stale entries migrate too — they stay revivable until their
    // cycle is reached (I5).
    while (!far_.empty() && far_.front().when - wheelBase_ < kWheelSlots) {
        const FarEntry fe = far_.front();
        heapPop();
        const std::size_t idx = fe.when & (kWheelSlots - 1);
        slots_[idx].push_back(Entry{fe.ev});
        bitmap_[idx / 64] |= 1ull << (idx % 64);
    }
}

/** First occupied slot index at or after @p from in circular window
 *  order, or -1 when the wheel is empty. */
static int
firstSetFrom(const std::uint64_t *bitmap, std::size_t words,
             std::size_t from)
{
    const std::size_t ws = from / 64, bs = from % 64;
    const std::uint64_t high = bitmap[ws] & (~0ull << bs);
    if (high != 0)
        return static_cast<int>(ws * 64 + __builtin_ctzll(high));
    for (std::size_t k = 1; k <= words; ++k) {
        const std::size_t wi = (ws + k) & (words - 1);
        std::uint64_t w = bitmap[wi];
        if (wi == ws)
            w &= ~(~0ull << bs); // wrapped back: only the low part left
        if (w != 0)
            return static_cast<int>(wi * 64 + __builtin_ctzll(w));
    }
    return -1;
}

Cycle
EventQueue::firstWheelCycle() const
{
    const std::size_t base = wheelBase_ & (kWheelSlots - 1);
    const int idx = firstSetFrom(bitmap_, kBitmapWords, base);
    if (idx < 0)
        return kNoCycle;
    return wheelBase_ +
           ((static_cast<std::size_t>(idx) - base) & (kWheelSlots - 1));
}

Cycle
EventQueue::nextEventCycle()
{
    if (pending_ == 0)
        return kNoCycle;
    // Drop verified all-stale slots off the front of the wheel until
    // a slot with a live entry surfaces. Mixed slots keep their stale
    // entries (revivable until popped, I5). Far entries are strictly
    // beyond the window (>= any wheel cycle), so the wheel wins when
    // nonempty; a stale far top is returned as-is — run() migrates
    // and skips it, exactly as the old queue executed dead closures.
    for (Cycle c = firstWheelCycle(); c != kNoCycle;
         c = firstWheelCycle()) {
        const std::size_t idx = c & (kWheelSlots - 1);
        auto &slot = slots_[idx];
        const bool anyLive =
            std::any_of(slot.begin(), slot.end(),
                        [c](const Entry &e) { return live(e, c); });
        if (anyLive)
            return c;
        // A slot with no live entries cannot be revived: revival
        // would need a schedule() at this cycle, but execution is
        // already at or past it by the time this scan runs.
        for (const Entry &e : slot)
            e.ev->pins_--;
        slot.clear();
        bitmap_[idx / 64] &= ~(1ull << (idx % 64));
    }
    sim_assert(!far_.empty(), "pending events but no queued entries");
    return far_.front().when;
}

void
EventQueue::purge(TickEvent *ev)
{
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
        std::uint64_t bits = bitmap_[w];
        while (bits != 0 && ev->pins_ > 0) {
            const std::size_t idx =
                w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
            bits &= bits - 1;
            auto &slot = slots_[idx];
            // Entries already popped by an in-progress slot walk had
            // their pins released; only the unpopped tail counts.
            const auto first =
                slot.begin() +
                static_cast<std::ptrdiff_t>(idx == procIdx_ ? procPos_ : 0);
            const auto end =
                std::remove_if(first, slot.end(),
                               [&](const Entry &e) { return e.ev == ev; });
            ev->pins_ -=
                static_cast<std::uint32_t>(std::distance(end, slot.end()));
            slot.erase(end, slot.end());
            if (slot.empty())
                bitmap_[w] &= ~(1ull << (idx % 64));
        }
    }
    if (ev->pins_ > 0) {
        const auto end = std::remove_if(
            far_.begin(), far_.end(),
            [&](const FarEntry &e) { return e.ev == ev; });
        ev->pins_ -=
            static_cast<std::uint32_t>(std::distance(end, far_.end()));
        far_.erase(end, far_.end());
        std::make_heap(far_.begin(), far_.end(),
                       [](const FarEntry &a, const FarEntry &b) {
                           return a.when != b.when ? a.when > b.when
                                                   : a.seq > b.seq;
                       });
    }
    sim_assert(ev->pins_ == 0, "purge left pinned entries");
    if (ev->armed_) {
        ev->armed_ = false;
        pending_--;
    }
    ev->eq_ = nullptr;
}

std::uint64_t
EventQueue::run(Cycle limit)
{
    std::uint64_t executed = 0;
    while (!stopRequested_) {
        const Cycle c = nextEventCycle();
        if (c == kNoCycle || c > limit)
            break;
        // Advance the window to c. Slots behind it were verified
        // stale and cleared by nextEventCycle(); migrate far entries
        // whose cycles just entered the window (I2).
        wheelBase_ = c;
        now_ = c;
        migrateFar();
        auto &slot = slots_[c & (kWheelSlots - 1)];
        // Index-based walk: same-cycle schedules from callbacks
        // append to this very slot and must run this cycle, in order.
        // procIdx_/procPos_ publish the popped prefix so purge scans
        // exclude entries that were already released.
        procIdx_ = c & (kWheelSlots - 1);
        std::size_t i = 0;
        while (i < slot.size() && !stopRequested_) {
            const Entry e = slot[i++];
            procPos_ = i;
            e.ev->pins_--;
            if (!live(e, c))
                continue;
            TickEvent *ev = e.ev;
            // Disarm before firing so the callback can re-arm.
            ev->armed_ = false;
            pending_--;
            executed++;
            executedTotal_++;
            ev->fn_();
        }
        procIdx_ = kWheelSlots;
        procPos_ = 0;
        if (i >= slot.size()) {
            slot.clear();
            const std::size_t idx = c & (kWheelSlots - 1);
            bitmap_[idx / 64] &= ~(1ull << (idx % 64));
        } else {
            // Stopped mid-slot: keep the unprocessed suffix.
            slot.erase(slot.begin(),
                       slot.begin() + static_cast<std::ptrdiff_t>(i));
        }
    }
    stopRequested_ = false;
    return executed;
}

void
EventQueue::reset()
{
    // Every entry is dropped, so every armed event loses its live
    // entry: disarm everything encountered.
    const auto drop = [](TickEvent *ev) {
        ev->pins_--;
        ev->armed_ = false;
    };
    for (auto &slot : slots_) {
        for (const Entry &e : slot)
            drop(e.ev);
        slot.clear();
    }
    for (const FarEntry &e : far_)
        drop(e.ev);
    far_.clear();
    for (std::uint64_t &w : bitmap_)
        w = 0;
    // One-shot nodes hold their own TickEvents; all pins are gone, so
    // destroying them is a no-op purge.
    nodes_.clear();
    freeList_ = nullptr;
    now_ = 0;
    wheelBase_ = 0;
    seq_ = 0;
    pending_ = 0;
    executedTotal_ = 0;
    stopRequested_ = false;
    procIdx_ = kWheelSlots;
    procPos_ = 0;
}

} // namespace banshee
