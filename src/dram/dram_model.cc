#include "dram/dram_model.hh"

#include <algorithm>
#include <memory>

#include "telemetry/dram_hooks.hh"
#include "telemetry/span_trace.hh"

namespace banshee {

//
// DramChannel
//

DramChannel::DramChannel(EventQueue &eq, const DramTiming &timing,
                         TrafficStats &traffic, DramPowerModel &power,
                         StatSet &stats, const std::string &name)
    : eq_(eq), timing_(timing), traffic_(traffic), power_(power),
      banks_(timing.numBanks),
      casCycles_(timing.toCore(timing.scaledCAS())),
      rcdCycles_(timing.toCore(timing.scaledRCD())),
      rpCycles_(timing.toCore(timing.scaledRP())),
      rasCycles_(timing.toCore(timing.scaledRAS())),
      closedReady_(rcdCycles_ + casCycles_),
      conflictReady_(rpCycles_ + rcdCycles_ + casCycles_),
      kickEvent_([this] { kick(); }),
      statReqs_(stats.counter(name + ".requests")),
      statRowHits_(stats.counter(name + ".rowHits"))
{
    // Typical queue depths fit; deeper queues grow the slab once.
    slab_.reserve(128);
}

void
DramChannel::push(DramRequest req)
{
    if (telem_) {
        // Queue depth this request finds on arrival.
        if (req.isWrite)
            telem_->writeOccupancy.record(writeQ_.size);
        else
            telem_->readOccupancy.record(readQ_.size);
    }
    std::uint32_t n = freeHead_;
    if (n != kNil) {
        freeHead_ = slab_[n].next;
    } else {
        n = static_cast<std::uint32_t>(slab_.size());
        slab_.emplace_back();
    }
    Pending &p = slab_[n];
    p.row = req.addr / timing_.rowBytes;
    p.bank = static_cast<std::uint32_t>(p.row % banks_.size());
    p.req = std::move(req);
    p.arrival = eq_.now();
    p.qosMark = 0;
    link(p.req.isWrite ? writeQ_ : readQ_, n);
    armKick(eq_.now());
}

void
DramChannel::link(Queue &q, std::uint32_t n)
{
    Pending &p = slab_[n];
    p.prev = q.tail;
    p.next = kNil;
    if (q.tail != kNil)
        slab_[q.tail].next = n;
    else
        q.head = n;
    q.tail = n;
    ++q.size;
}

void
DramChannel::unlink(Queue &q, std::uint32_t n)
{
    const Pending &p = slab_[n];
    if (p.prev != kNil)
        slab_[p.prev].next = p.next;
    else
        q.head = p.next;
    if (p.next != kNil)
        slab_[p.next].prev = p.prev;
    else
        q.tail = p.prev;
    --q.size;
}

void
DramChannel::armKick(Cycle when)
{
    when = std::max(when, eq_.now());
    // Supersede only to earlier cycles; re-arming is O(1) on the one
    // preallocated event (no per-arm closure, no dead heap entries
    // executing staleness filters).
    if (kickEvent_.armed() && kickEvent_.when() <= when)
        return;
    // Kick coalescing: once a kick has fired this cycle and issued
    // nothing (lastNoopKickCycle_ == when), and is armed at that
    // no-op's re-arm cycle W with the bus still reserved past the
    // horizon, a push in the same cycle does not supersede it. The
    // first no-op of a cycle always runs; only repeats are skipped.
    // A skipped round trip would issue nothing (busFree_ cannot move
    // without an issue), but it is not invisible: it would re-arm the
    // kick onto W a second time and leave a second queue entry at W.
    // A push at W after the kick has fired there would then revive
    // that entry at its older FIFO position (invariant I5 in
    // event_queue.cc), so the kick would run between two same-cycle
    // pushes and pick from a shorter queue. This guard is therefore
    // part of the model's event order, not a host-speed shortcut:
    // deleting it moves simulated results (first seen in
    // ext_energy --quick mcf/Unison) and regenerates the goldens.
    if (kickEvent_.armed() && lastNoopKickCycle_ == when &&
        kickEvent_.when() + timing_.toCore(kReserveAheadDramCycles / 2) ==
            busFree_ &&
        busFree_ > when + timing_.toCore(kReserveAheadDramCycles))
        return;
    eq_.schedule(kickEvent_, when);
}

Cycle
DramChannel::bankReadyCycle(const Pending &p) const
{
    // Mirrors issue(): earliest cycle this request's data could be on
    // the bus given only its bank's state. CAS commands pipeline: the
    // bank accepts the next column access one burst after the
    // previous one issued, so back-to-back row hits are bus-limited,
    // not tCAS-limited.
    const Bank &bank = banks_[p.bank];
    const Cycle start = std::max(eq_.now(), bank.readyCycle);

    if (bank.openRow == p.row) {
        // Row-buffer hit: only the column access.
        return start + casCycles_;
    }
    if (bank.openRow == ~0ull) {
        // Bank closed: activate then access.
        return start + closedReady_;
    }
    // Conflict: precharge (respecting tRAS) + activate + access.
    const Cycle preStart = std::max(start, bank.lastActStart + rasCycles_);
    return preStart + conflictReady_;
}

void
DramChannel::setSchedConfig(const DramSchedConfig &config)
{
    sched_ = config;
    sched_.epochCycles = std::max<Cycle>(sched_.epochCycles, 1);
    sched_.window = std::max<std::uint32_t>(sched_.window, 1);
    qosBytesPerEpoch_ = config.bytesPerEpoch;
    if (qosBytesPerEpoch_ == 0) {
        // Full channel bandwidth over one epoch: busBytesPerCycle
        // every DRAM cycle for epochCycles core cycles.
        qosBytesPerEpoch_ = (sched_.epochCycles / timing_.toCore(1)) *
                            timing_.busBytesPerCycle;
    }
    qosEpochStart_ = eq_.now();
}

void
DramChannel::setQosShares(const std::array<double, kMaxTenants> &shares)
{
    qosShare_ = shares;
    qosSharesSet_ = true;
    // Reset credits to the new entitlements immediately so a share
    // change (resize commit, arbiter rebalance) binds deterministically
    // rather than waiting out the current epoch.
    for (std::size_t t = 0; t < kMaxTenants; ++t) {
        qosCredit_[t] = static_cast<std::int64_t>(
            qosShare_[t] * static_cast<double>(qosBytesPerEpoch_));
    }
}

void
DramChannel::qosRefill(Cycle now)
{
    if (now < qosEpochStart_ + sched_.epochCycles)
        return;
    // Advance by whole epochs. Credits reset rather than carry: an
    // idle tenant's unused entitlement was already spent by others
    // through work conservation, not banked.
    const Cycle elapsed = now - qosEpochStart_;
    qosEpochStart_ += (elapsed / sched_.epochCycles) * sched_.epochCycles;
    for (std::size_t t = 0; t < kMaxTenants; ++t) {
        qosCredit_[t] = static_cast<std::int64_t>(
            qosShare_[t] * static_cast<double>(qosBytesPerEpoch_));
    }
}

void
DramChannel::qosCharge(const Pending &p)
{
    traffic_.addQosGrant(p.req.tenant);
    if (qosSharesSet_ && p.req.tenant < kMaxTenants)
        qosCredit_[p.req.tenant] -= p.req.bytes; // may go negative
}

bool
DramChannel::selectNext(std::uint32_t &out)
{
    const Cycle now = eq_.now();
    if (sched_.qos)
        qosRefill(now);

    // Write-drain hysteresis: start draining when the write queue is
    // high or there is nothing else to do; stop at the low watermark.
    // A write parked past its age cap forces (and holds) a drain
    // regardless of watermarks, so posted writes cannot wait on
    // another tenant's read stream forever. Without a cap (the stock
    // config) nothing bounds an individual write's wait: a co-runner
    // that keeps the read queue nonempty can park another tenant's
    // writes below the high watermark for a long time.
    const bool writeOverAge =
        sched_.writeAgeCap > 0 && writeQ_.size > 0 &&
        now - slab_[writeQ_.head].arrival > sched_.writeAgeCap;
    const bool readOverAge =
        sched_.readAgeCap > 0 && readQ_.size > 0 &&
        now - slab_[readQ_.head].arrival > sched_.readAgeCap;
    if (!drainingWrites_) {
        if (writeQ_.size >= sched_.writeDrainHigh ||
            (readQ_.size == 0 && writeQ_.size > 0) || writeOverAge) {
            drainingWrites_ = true;
        }
    } else if (writeQ_.size <= sched_.writeDrainLow && readQ_.size > 0 &&
               !writeOverAge) {
        drainingWrites_ = false;
    }

    // An over-age read steals single slots out of a write drain (the
    // drain state itself is untouched, so writes keep progressing
    // between stolen slots): a migration burst filling the write
    // queue otherwise blocks another tenant's reads for the whole
    // high-to-low-watermark drain. An over-age write wins the tie —
    // both sides stay bounded.
    const bool readPreempts =
        drainingWrites_ && readOverAge && !writeOverAge;
    Queue &q = (drainingWrites_ && writeQ_.size > 0 && !readPreempts)
                   ? writeQ_
                   : readQ_;
    if (q.size == 0)
        return false;

    // Age-bounded FR-FCFS: the oldest request (queue head — FIFO
    // push order) beats any row hit once its wait exceeds the cap.
    const Cycle ageCap =
        &q == &writeQ_ ? sched_.writeAgeCap : sched_.readAgeCap;
    if (ageCap > 0 && now - slab_[q.head].arrival > ageCap) {
        out = q.head;
        unlink(q, out);
        slab_[out].qosMark = kQosAged;
        if (sched_.qos)
            qosCharge(slab_[out]);
        return true;
    }

    // FR-FCFS over the window: earliest possible bus time wins, FCFS
    // tie-break. Track the overall bandwidth-optimal pick and the best
    // credit-eligible pick, and prefer the eligible one; while credits
    // do not bind every request is eligible and the two coincide.
    // Work conserving: with no eligible contender the overall best
    // issues anyway.
    const bool credits = sched_.qos && qosSharesSet_;
    const std::uint32_t window = std::min(q.size, sched_.window);
    std::uint32_t n = q.head;
    std::uint32_t best = n;
    Cycle bestReady = bankReadyCycle(slab_[n]);
    std::uint32_t bestElig = !credits || qosEligible(slab_[n]) ? n : kNil;
    Cycle bestEligReady = bestReady;
    for (std::uint32_t i = 1; i < window; ++i) {
        n = slab_[n].next;
        const Pending &p = slab_[n];
        const Cycle r = bankReadyCycle(p);
        if (r < bestReady) {
            bestReady = r;
            best = n;
        }
        if ((!credits || qosEligible(p)) &&
            (bestElig == kNil || r < bestEligReady)) {
            bestEligReady = r;
            bestElig = n;
        }
    }
    const std::uint32_t pick = bestElig != kNil ? bestElig : best;
    if (pick != best) {
        // Credit arbitration bypassed the bandwidth-optimal request:
        // its tenant exhausted this epoch's entitlement.
        Pending &bypassed = slab_[best];
        bypassed.qosMark = kQosDeferred;
        traffic_.addQosDefer(bypassed.req.tenant);
        if (telem_)
            telem_->qosDeferAge.record(now - bypassed.arrival);
    }
    out = pick;
    unlink(q, pick);
    if (sched_.qos)
        qosCharge(slab_[pick]);
    return true;
}

void
DramChannel::issue(std::uint32_t n)
{
    Pending &p = slab_[n];
    Bank &bank = banks_[p.bank];
    const Cycle start = std::max(eq_.now(), bank.readyCycle);

    Cycle casTime;
    if (bank.openRow == p.row) {
        casTime = start;
        ++statRowHits_;
    } else if (bank.openRow == ~0ull) {
        casTime = start + rcdCycles_;
        bank.lastActStart = start;
        bank.openRow = p.row;
        power_.onActivate(p.req.cat, p.req.tenant);
    } else {
        const Cycle preStart =
            std::max(start, bank.lastActStart + rasCycles_);
        const Cycle actStart = preStart + rpCycles_;
        casTime = actStart + rcdCycles_;
        bank.lastActStart = actStart;
        bank.openRow = p.row;
        power_.onActivate(p.req.cat, p.req.tenant);
    }
    power_.onBurst(p.req.bytes, p.req.tagBytes, p.req.isWrite, p.req.cat,
                   p.req.tenant);

    const Cycle dataReady = casTime + casCycles_;
    const Cycle transfer =
        timing_.toCore(p.req.bytes / timing_.busBytesPerCycle);
    const Cycle busStart = std::max(busFree_, dataReady);
    const Cycle complete = busStart + transfer;

    busFree_ = complete;
    busBusyCycles_ += transfer;
    power_.onBusBusy(transfer);
    // CAS commands pipeline: the bank accepts the next column access
    // one burst slot after this one issued (tCCD ~= burst length),
    // so consecutive row hits stream at full bus bandwidth while the
    // tCAS latency of each access is still paid by its own data.
    bank.readyCycle = casTime + transfer;

    ++statReqs_;
    if (telem_) {
        const Cycle sojourn = complete - p.arrival;
        telem_->queueLatency.record(sojourn);
        if (telem_->tenantQueueLatency) {
            telem_->tenantQueueLatency[tenantBucket(p.req.tenant)].record(
                sojourn);
        }
    }

    if (spans_ && p.req.spanPage != kNoSpanPage) {
        // Queue slice (arrival -> bus grant) + service slice (grant ->
        // completion): all three times are known at issue, and the
        // journal only observes, so tracing cannot perturb timing.
        const char *qosTag = p.qosMark == kQosAged       ? "aged"
                             : p.qosMark == kQosDeferred ? "deferred"
                                                         : nullptr;
        spans_->channelRequest(spanTrack_, p.req.spanPage, p.arrival,
                               busStart, complete, p.req.isWrite,
                               p.req.cat, p.req.tenant, qosTag);
    }

    if (p.req.done) {
        // The one-shot passes the firing cycle (== complete) straight
        // through: the DramDoneFn moves into a pooled event node with
        // no wrapper closure.
        eq_.schedule(complete, std::move(p.req.done));
    }
    p.req.done = nullptr;
    p.next = freeHead_;
    freeHead_ = n;
}

void
DramChannel::kick()
{
    // Issue requests while the bus reservation horizon allows; bank
    // preparation of later picks overlaps earlier transfers.
    const Cycle horizon =
        eq_.now() + timing_.toCore(kReserveAheadDramCycles);
    bool issuedAny = false;
    while (busFree_ <= horizon) {
        std::uint32_t n;
        if (!selectNext(n)) {
            lastNoopKickCycle_ = issuedAny ? ~0ull : eq_.now();
            return;
        }
        issue(n);
        issuedAny = true;
    }
    // Remember no-op rounds so armKick can collapse same-cycle
    // repeats; any issue invalidates the memo (busFree_ moved).
    lastNoopKickCycle_ = issuedAny ? ~0ull : eq_.now();
    if (readQ_.size > 0 || writeQ_.size > 0) {
        // Re-arm once the reserved bus time has drained.
        armKick(busFree_ - timing_.toCore(kReserveAheadDramCycles / 2));
    }
}

//
// DramModel
//

DramModel::DramModel(EventQueue &eq, DramTiming timing,
                     std::uint32_t numChannels, DramPowerParams powerParams)
    : eq_(eq), timing_(timing), power_(powerParams, timing_, numChannels)
{
    sim_assert(numChannels > 0, "DRAM device needs >= 1 channel");
    channels_.reserve(numChannels);
    for (std::uint32_t c = 0; c < numChannels; ++c) {
        channels_.push_back(std::make_unique<DramChannel>(
            eq_, timing_, traffic_, power_, stats_,
            "ch" + std::to_string(c)));
    }
}

void
DramModel::bulkAccess(std::uint32_t channel, Addr addr, std::uint64_t bytes,
                      bool isWrite, TrafficCat cat, TenantId tenant,
                      PageNum spanPage)
{
    sim_assert(bytes > 0, "empty bulk access");
    const std::uint32_t chunk = kMaxRequestBytes / 2; // 256 B pieces
    std::uint64_t remaining = bytes;
    Addr cur = addr;
    while (remaining > 0) {
        const std::uint32_t sz =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(
                remaining, chunk));
        DramRequest req;
        req.addr = cur;
        req.bytes = sz;
        req.isWrite = isWrite;
        req.cat = cat;
        req.tenant = tenant;
        req.spanPage = spanPage;
        access(channel, std::move(req));
        cur += sz;
        remaining -= sz;
    }
}

double
DramModel::busUtilization(Cycle elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    Cycle busy = 0;
    for (const auto &ch : channels_)
        busy += ch->busBusyCycles();
    return static_cast<double>(busy) /
           (static_cast<double>(elapsed) * channels_.size());
}

void
DramModel::resetStats()
{
    traffic_.reset();
    stats_.reset();
    power_.resetStats(eq_.now());
    for (auto &ch : channels_)
        ch->resetStats();
}

} // namespace banshee
