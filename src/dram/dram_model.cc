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
                         StatSet &stats, std::string name)
    : eq_(eq), timing_(timing), traffic_(traffic), power_(power),
      name_(std::move(name)), banks_(timing.numBanks),
      kickEvent_([this] { kick(); }),
      statReqs_(stats.counter(name_ + ".requests")),
      statRowHits_(stats.counter(name_ + ".rowHits")),
      statRowConflicts_(stats.counter(name_ + ".rowConflicts")),
      statTotalLatency_(stats.counter(name_ + ".totalLatencyCycles"))
{
}

void
DramChannel::push(DramRequest req)
{
    if (telem_) {
        // Queue depth this request finds on arrival.
        if (req.isWrite)
            telem_->writeOccupancy.record(writeQ_.size());
        else
            telem_->readOccupancy.record(readQ_.size());
    }
    Pending p{std::move(req), eq_.now()};
    if (p.req.isWrite)
        writeQ_.push_back(std::move(p));
    else
        readQ_.push_back(std::move(p));
    armKick(eq_.now());
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
    // Kick coalescing: collapse back-to-back same-cycle no-op kicks.
    // Once a kick has already fired this cycle and issued nothing
    // (lastNoopKickCycle_ == when), a further supersede by a push in
    // the same cycle would replay the identical round trip: fire,
    // see the same reserved-past-horizon bus (busFree_ cannot move
    // without an issue), and re-arm back onto the cycle it is armed
    // at now. The first no-op of the cycle is deliberately NOT
    // skipped: its re-arm pins the wheel entry at the re-arm cycle
    // that the event queue's revival semantics (invariant I5) can
    // observe; only the redundant repeats are elided.
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
    const std::uint64_t row = p.req.addr / timing_.rowBytes;
    const Bank &bank = banks_[row % banks_.size()];
    const Cycle start = std::max(eq_.now(), bank.readyCycle);

    if (bank.openRow == row) {
        // Row-buffer hit: only the column access.
        return start + timing_.toCore(timing_.scaledCAS());
    }
    if (bank.openRow == ~0ull) {
        // Bank closed: activate then access.
        return start + timing_.toCore(timing_.scaledRCD() +
                                      timing_.scaledCAS());
    }
    // Conflict: precharge (respecting tRAS) + activate + access.
    const Cycle rasDone =
        bank.lastActStart + timing_.toCore(timing_.scaledRAS());
    const Cycle preStart = std::max(start, rasDone);
    return preStart + timing_.toCore(timing_.scaledRP() +
                                     timing_.scaledRCD() +
                                     timing_.scaledCAS());
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
DramChannel::selectNext(Pending &out)
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
        sched_.writeAgeCap > 0 && !writeQ_.empty() &&
        now - writeQ_.front().arrival > sched_.writeAgeCap;
    const bool readOverAge =
        sched_.readAgeCap > 0 && !readQ_.empty() &&
        now - readQ_.front().arrival > sched_.readAgeCap;
    if (!drainingWrites_) {
        if (writeQ_.size() >= sched_.writeDrainHigh ||
            (readQ_.empty() && !writeQ_.empty()) || writeOverAge) {
            drainingWrites_ = true;
        }
    } else if (writeQ_.size() <= sched_.writeDrainLow && !readQ_.empty() &&
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
    std::deque<Pending> &q =
        (drainingWrites_ && !writeQ_.empty() && !readPreempts)
            ? writeQ_
            : readQ_;
    if (q.empty())
        return false;

    // Age-bounded FR-FCFS: the oldest request (queue front — FIFO
    // push order) beats any row hit once its wait exceeds the cap.
    const Cycle ageCap =
        &q == &writeQ_ ? sched_.writeAgeCap : sched_.readAgeCap;
    if (ageCap > 0 && now - q.front().arrival > ageCap) {
        out = std::move(q.front());
        q.pop_front();
        out.qosMark = kQosAged;
        if (sched_.qos)
            qosCharge(out);
        return true;
    }

    // FR-FCFS over the window: earliest possible bus time wins, FCFS
    // tie-break. Track the overall bandwidth-optimal pick and the best
    // credit-eligible pick, and prefer the eligible one; while credits
    // do not bind every request is eligible and the two coincide.
    // Work conserving: with no eligible contender the overall best
    // issues anyway.
    const bool credits = sched_.qos && qosSharesSet_;
    const std::size_t window =
        std::min<std::size_t>(q.size(), sched_.window);
    std::size_t best = 0;
    Cycle bestReady = bankReadyCycle(q[0]);
    std::size_t bestElig =
        !credits || qosEligible(q[0]) ? 0 : window; // window = none
    Cycle bestEligReady = bestReady;
    for (std::size_t i = 1; i < window; ++i) {
        const Cycle r = bankReadyCycle(q[i]);
        if (r < bestReady) {
            bestReady = r;
            best = i;
        }
        if ((!credits || qosEligible(q[i])) &&
            (bestElig == window || r < bestEligReady)) {
            bestEligReady = r;
            bestElig = i;
        }
    }
    const std::size_t pick = bestElig != window ? bestElig : best;
    if (pick != best) {
        // Credit arbitration bypassed the bandwidth-optimal request:
        // its tenant exhausted this epoch's entitlement.
        Pending &bypassed = q[best];
        bypassed.qosMark = kQosDeferred;
        traffic_.addQosDefer(bypassed.req.tenant);
        if (telem_)
            telem_->qosDeferAge.record(now - bypassed.arrival);
    }
    out = std::move(q[pick]);
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(pick));
    if (sched_.qos)
        qosCharge(out);
    return true;
}

void
DramChannel::issue(Pending p)
{
    const std::uint64_t row = p.req.addr / timing_.rowBytes;
    Bank &bank = banks_[row % banks_.size()];
    const Cycle start = std::max(eq_.now(), bank.readyCycle);

    Cycle casTime;
    if (bank.openRow == row) {
        casTime = start;
        ++statRowHits_;
    } else if (bank.openRow == ~0ull) {
        casTime = start + timing_.toCore(timing_.scaledRCD());
        bank.lastActStart = start;
        bank.openRow = row;
        power_.onActivate(p.req.cat, p.req.tenant);
    } else {
        const Cycle rasDone =
            bank.lastActStart + timing_.toCore(timing_.scaledRAS());
        const Cycle preStart = std::max(start, rasDone);
        const Cycle actStart = preStart + timing_.toCore(timing_.scaledRP());
        casTime = actStart + timing_.toCore(timing_.scaledRCD());
        bank.lastActStart = actStart;
        bank.openRow = row;
        ++statRowConflicts_;
        power_.onActivate(p.req.cat, p.req.tenant);
    }
    power_.onBurst(p.req.bytes, p.req.tagBytes, p.req.isWrite, p.req.cat,
                   p.req.tenant);

    const Cycle dataReady = casTime + timing_.toCore(timing_.scaledCAS());
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
    statTotalLatency_ += complete - p.arrival;
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
        // The CycleFn overload passes the firing cycle (== complete)
        // straight through: the DramDoneFn moves into a pooled event
        // node with no wrapper closure.
        eq_.schedule(complete, std::move(p.req.done));
    }
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
        Pending p;
        if (!selectNext(p)) {
            lastNoopKickCycle_ = issuedAny ? ~0ull : eq_.now();
            return;
        }
        issue(std::move(p));
        issuedAny = true;
    }
    // Remember no-op rounds so armKick can collapse same-cycle
    // repeats; any issue invalidates the memo (busFree_ moved).
    lastNoopKickCycle_ = issuedAny ? ~0ull : eq_.now();
    if (!readQ_.empty() || !writeQ_.empty()) {
        // Re-arm once the reserved bus time has drained.
        armKick(busFree_ - timing_.toCore(kReserveAheadDramCycles / 2));
    }
}

//
// DramModel
//

DramModel::DramModel(EventQueue &eq, DramTiming timing,
                     std::uint32_t numChannels, std::string name,
                     DramPowerParams powerParams)
    : eq_(eq), timing_(timing), name_(std::move(name)), stats_(name_),
      power_(powerParams, timing_, numChannels, stats_)
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
                      bool isWrite, TrafficCat cat, DramDoneFn done,
                      TenantId tenant, PageNum spanPage)
{
    sim_assert(bytes > 0, "empty bulk access");
    const std::uint32_t chunk = kMaxRequestBytes / 2; // 256 B pieces
    std::uint64_t remaining = bytes;
    Addr cur = addr;
    // Count-down latch: the callback fires when the last chunk lands.
    auto outstanding = std::make_shared<std::uint32_t>(
        static_cast<std::uint32_t>((bytes + chunk - 1) / chunk));
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
        if (done) {
            req.done = [outstanding, done](Cycle when) {
                if (--*outstanding == 0)
                    done(when);
            };
        }
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
