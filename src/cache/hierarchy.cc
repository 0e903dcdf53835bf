#include "cache/hierarchy.hh"

#include "common/event_queue.hh"
#include "common/log.hh"
#include "telemetry/span_trace.hh"

namespace banshee {

CacheHierarchy::CacheHierarchy(const EventQueue &eq,
                               const HierarchyParams &params,
                               MemBackend &backend)
    : eq_(eq), params_(params), backend_(backend),
      statLlcMisses_(stats_.counter("llcMisses")),
      statMshrMerges_(stats_.counter("mshrMerges")),
      statFetchesCompleted_(stats_.counter("fetchesCompleted")),
      statFetchLatencyTotal_(stats_.counter("fetchLatencyTotal"))
{
    sim_assert(params.numCores <= 64,
               "sharer mask is 64 bits; %u cores requested",
               params.numCores);
    for (std::uint32_t c = 0; c < params.numCores; ++c) {
        CacheParams p;
        p.name = "l1i" + std::to_string(c);
        p.sizeBytes = params.l1iSize;
        p.ways = params.l1iWays;
        l1i_.push_back(std::make_unique<Cache>(p));
        p.name = "l1d" + std::to_string(c);
        p.sizeBytes = params.l1dSize;
        p.ways = params.l1dWays;
        l1d_.push_back(std::make_unique<Cache>(p));
        p.name = "l2_" + std::to_string(c);
        p.sizeBytes = params.l2Size;
        p.ways = params.l2Ways;
        l2_.push_back(std::make_unique<Cache>(p));
    }
    CacheParams p3;
    p3.name = "l3";
    p3.sizeBytes = params.l3Size;
    p3.ways = params.l3Ways;
    l3_ = std::make_unique<Cache>(p3);

    // Room for 16 outstanding misses per core before the MSHR table
    // grows (a core allows 10 by default).
    std::uint32_t buckets = 64;
    while (buckets < 32 * params.numCores)
        buckets *= 2;
    mshrIndex_.resize(buckets);
    mshrShift_ = 64 - log2i(buckets);
    mshrPool_.reserve(buckets / 2);
    mshrFree_.reserve(buckets / 2);
}

CacheHierarchy::AccessResult
CacheHierarchy::access(CoreId core, Addr addr, bool isWrite,
                       const MappingInfo &mapping, MissDoneFn done)
{
    return accessInternal(core, addr, isWrite, false, mapping,
                          std::move(done));
}

CacheHierarchy::AccessResult
CacheHierarchy::fetch(CoreId core, Addr addr, const MappingInfo &mapping,
                      MissDoneFn done)
{
    return accessInternal(core, addr, false, true, mapping, std::move(done));
}

CacheHierarchy::AccessResult
CacheHierarchy::accessInternal(CoreId core, Addr addr, bool isWrite,
                               bool isFetch, const MappingInfo &mapping,
                               MissDoneFn done)
{
    const LineAddr line = lineOf(addr);
    Cache &l1 = isFetch ? *l1i_[core] : *l1d_[core];

    AccessResult res;
    if (l1.lookup(line, isWrite)) {
        res.level = Level::L1;
        res.latency = params_.l1Latency;
        return res;
    }

    // From here on the lookups prove the line absent from every level
    // they missed, so the fills below insert without re-probing.
    if (const Cache::Slot s2 = l2_[core]->lookup(line, false)) {
        fillL1(core, line, s2, isWrite, isFetch);
        res.level = Level::L2;
        res.latency = params_.l2Latency;
        return res;
    }

    if (const Cache::Slot s3 = l3_->lookup(line, false)) {
        l3_->setMeta(s3, l3_->meta(s3) | 1ull << core);
        fillL1(core, line, fillL2(core, line), isWrite, isFetch);
        res.level = Level::L3;
        res.latency = params_.l3Latency;
        return res;
    }

    // LLC miss: merge into an existing MSHR or allocate one.
    res.level = Level::Mem;
    res.latency = params_.l1Latency + params_.l2Latency + params_.l3Latency;
    res.pending = true;

    const std::uint32_t bucket = mshrFind(line);
    if (bucket != kNoMshr) {
        ++statMshrMerges_;
        mshrPool_[mshrIndex_[bucket].entry].waiters.push_back(
            MshrWaiter{core, isWrite, isFetch, std::move(done)});
        return res;
    }

    ++statLlcMisses_;
    MshrEntry &m = mshrPool_[mshrAllocate(line)];
    m.issued = eq_.now();
    m.waiters.push_back(MshrWaiter{core, isWrite, isFetch, std::move(done)});

    backend_.fetchLine(line, mapping,
                       [this, line](Cycle when) { fillComplete(line, when); });
    return res;
}

Cache::Slot
CacheHierarchy::fillL2(CoreId core, LineAddr line)
{
    const Cache::Placement p = l2_[core]->insert(line, false);
    handleL2Victim(core, p.victim);
    return p.slot;
}

void
CacheHierarchy::fillL1(CoreId core, LineAddr line, Cache::Slot l2Slot,
                       bool isWrite, bool isFetch)
{
    Cache &l1 = isFetch ? *l1i_[core] : *l1d_[core];
    const std::uint64_t bit = isFetch ? kInL1i : kInL1d;
    Cache &l2 = *l2_[core];
    l2.setMeta(l2Slot, l2.meta(l2Slot) | bit);
    handleL1Victim(core, bit, l1.insert(line, isWrite, l2Slot.index()).victim);
}

void
CacheHierarchy::handleL1Victim(CoreId core, std::uint64_t bit,
                               const Cache::Victim &victim)
{
    if (!victim.valid)
        return;
    // Inclusive L2: the victim's L2 copy is still in the slot its
    // metadata names (an L2 eviction would have invalidated it).
    Cache &l2 = *l2_[core];
    const Cache::Slot s2(static_cast<std::uint32_t>(victim.meta));
    sim_assert(l2.holds(s2, victim.line),
               "inclusion: L1 victim %llx is not in L2 slot %u",
               static_cast<unsigned long long>(victim.line), s2.index());
    l2.setMeta(s2, l2.meta(s2) & ~bit);
    if (victim.dirty)
        l2.setDirty(s2);
}

void
CacheHierarchy::handleL2Victim(CoreId core, const Cache::Victim &victim)
{
    if (!victim.valid)
        return;
    // Back-invalidate the L1 copies its presence bits name.
    bool dirty = victim.dirty;
    if (victim.meta & kInL1d)
        dirty |= l1d_[core]->invalidate(victim.line).dirty;
    if (victim.meta & kInL1i)
        l1i_[core]->invalidate(victim.line);
    if (!dirty)
        return;
    const Cache::Slot s3 = l3_->contains(victim.line);
    sim_assert(s3, "inclusion: L2 victim %llx is not in L3",
               static_cast<unsigned long long>(victim.line));
    l3_->setDirty(s3);
}

void
CacheHierarchy::handleL3Victim(const Cache::Victim &victim)
{
    if (!victim.valid)
        return;
    bool dirty = victim.dirty;
    for (std::uint64_t sharers = victim.meta; sharers != 0;
         sharers &= sharers - 1) {
        const CoreId c = static_cast<CoreId>(__builtin_ctzll(sharers));
        // No L2 copy means no L1 copy either (inclusive L2).
        const Cache::Victim v2 = l2_[c]->invalidate(victim.line);
        if (!v2.valid)
            continue;
        dirty |= v2.dirty;
        if (v2.meta & kInL1d)
            dirty |= l1d_[c]->invalidate(victim.line).dirty;
        if (v2.meta & kInL1i)
            l1i_[c]->invalidate(victim.line);
    }
    if (dirty)
        backend_.writebackLine(victim.line);
}

void
CacheHierarchy::fillComplete(LineAddr line, Cycle when)
{
    const std::uint32_t bucket = mshrFind(line);
    sim_assert(bucket != kNoMshr, "fill for unknown MSHR line %llx",
               static_cast<unsigned long long>(line));
    // Unindex before the fills and callbacks: a callback that misses
    // on this line again starts a new miss. The entry itself returns
    // to the free list only after its waiters are done.
    const std::uint32_t e = mshrIndex_[bucket].entry;
    mshrUnindex(bucket);

    // Time the miss before the L3 insert: an L3 victim's writeback
    // emits its own span, which must follow this one in the trace.
    const Cycle issued = mshrPool_[e].issued;
    ++statFetchesCompleted_;
    statFetchLatencyTotal_ += when > issued ? when - issued : 0;
    // The journal samples at the scheme's page granularity, which
    // System wires from the same config.
    if (spans_ && spans_->sampledAddr(lineToAddr(line)))
        spans_->fetchSpan(lineToAddr(line) >> spans_->pageBits(), issued,
                          when);

    std::uint64_t sharers = 0;
    for (const MshrWaiter &w : mshrPool_[e].waiters)
        sharers |= 1ull << w.core;

    // The line was absent from L3 when the miss was allocated, and
    // every later access to it merged here.
    handleL3Victim(l3_->insert(line, false, sharers).victim);

    // Two waiters of one core can share the line's private copies,
    // so each private level is probed once per waiter.
    const std::size_t n = mshrPool_[e].waiters.size();
    for (std::size_t k = 0; k < n; ++k) {
        const MshrWaiter &w = mshrPool_[e].waiters[k];
        Cache::Slot s2 = l2_[w.core]->contains(line);
        if (!s2)
            s2 = fillL2(w.core, line);
        Cache &l1 = w.isFetch ? *l1i_[w.core] : *l1d_[w.core];
        if (const Cache::Slot s1 = l1.contains(line)) {
            if (w.isWrite)
                l1.setDirty(s1);
        } else {
            fillL1(w.core, line, s2, w.isWrite, w.isFetch);
        }
    }

    for (std::size_t k = 0; k < n; ++k) {
        // Move the callback out: it may re-enter and grow the pool.
        MissDoneFn done = std::move(mshrPool_[e].waiters[k].done);
        if (done)
            done(when);
    }
    mshrPool_[e].waiters.clear();
    mshrFree_.push_back(e);
}

std::uint32_t
CacheHierarchy::mshrFind(LineAddr line) const
{
    const std::uint32_t mask =
        static_cast<std::uint32_t>(mshrIndex_.size() - 1);
    for (std::uint32_t b = mshrHome(line);; b = (b + 1) & mask) {
        const MshrBucket &bk = mshrIndex_[b];
        if (bk.entry == kNoMshr)
            return kNoMshr;
        if (bk.line == line)
            return b;
    }
}

std::uint32_t
CacheHierarchy::mshrAllocate(LineAddr line)
{
    if (2 * (mshrCount_ + 1) > mshrIndex_.size()) {
        // Keep the index at most half full: rehash into twice the
        // buckets.
        std::vector<MshrBucket> old(mshrIndex_.size() * 2);
        old.swap(mshrIndex_);
        --mshrShift_;
        for (const MshrBucket &bk : old) {
            if (bk.entry != kNoMshr)
                mshrPlace(bk);
        }
    }

    std::uint32_t e;
    if (mshrFree_.empty()) {
        e = static_cast<std::uint32_t>(mshrPool_.size());
        mshrPool_.emplace_back();
    } else {
        e = mshrFree_.back();
        mshrFree_.pop_back();
    }
    mshrPlace(MshrBucket{line, e});
    ++mshrCount_;
    return e;
}

void
CacheHierarchy::mshrPlace(const MshrBucket &bk)
{
    const std::uint32_t mask =
        static_cast<std::uint32_t>(mshrIndex_.size() - 1);
    std::uint32_t b = mshrHome(bk.line);
    while (mshrIndex_[b].entry != kNoMshr)
        b = (b + 1) & mask;
    mshrIndex_[b] = bk;
}

void
CacheHierarchy::mshrUnindex(std::uint32_t bucket)
{
    // Backward-shift deletion: pull each later bucket b of the probe
    // run into the hole unless its home lies cyclically in (hole, b],
    // where moving it would break its own probe run.
    const std::uint32_t mask =
        static_cast<std::uint32_t>(mshrIndex_.size() - 1);
    std::uint32_t hole = bucket;
    for (std::uint32_t b = (hole + 1) & mask;
         mshrIndex_[b].entry != kNoMshr; b = (b + 1) & mask) {
        const std::uint32_t home = mshrHome(mshrIndex_[b].line);
        if (((b - home) & mask) >= ((b - hole) & mask)) {
            mshrIndex_[hole] = mshrIndex_[b];
            hole = b;
        }
    }
    mshrIndex_[hole].entry = kNoMshr;
    --mshrCount_;
}

bool
CacheHierarchy::presentAnywhere(LineAddr line) const
{
    if (l3_->contains(line))
        return true;
    for (std::uint32_t c = 0; c < params_.numCores; ++c) {
        if (l1d_[c]->contains(line) || l1i_[c]->contains(line) ||
            l2_[c]->contains(line)) {
            return true;
        }
    }
    return false;
}

void
CacheHierarchy::resetStats()
{
    stats_.reset();
    for (auto &c : l1i_)
        c->stats().reset();
    for (auto &c : l1d_)
        c->stats().reset();
    for (auto &c : l2_)
        c->stats().reset();
    l3_->stats().reset();
}

} // namespace banshee
