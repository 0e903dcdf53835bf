#include "cpu/core_model.hh"

#include <algorithm>

#include "common/log.hh"

namespace banshee {

CoreModel::CoreModel(CoreId id, const CoreParams &params, EventQueue &eq,
                     CacheHierarchy &hierarchy, Tlb &tlb,
                     AccessPattern &pattern, std::uint64_t rngSeed)
    : id_(id), params_(params), eq_(eq), hierarchy_(hierarchy), tlb_(tlb),
      pattern_(pattern), rng_(rngSeed),
      runEvent_([this] {
          if (state_ == State::Running)
              run();
      }),
      codeBase_(codeRegionBase(id, params))
{
}

void
CoreModel::start()
{
    sim_assert(state_ == State::Idle || state_ == State::Parked,
               "start() on a busy core");
    state_ = State::Running;
    scheduleRun(curCycle_);
}

void
CoreModel::scheduleRun(Cycle at)
{
    if (runEvent_.armed())
        return;
    eq_.schedule(runEvent_, std::max(at, eq_.now()));
}

void
CoreModel::drainWindow()
{
    while (!window_.empty() && window_.front().done &&
           window_.front().doneCycle <= curCycle_) {
        if (lastLoad_ == &window_.front()) {
            lastLoadDone_ = window_.front().doneCycle;
            lastLoad_ = nullptr;
        }
        window_.pop_front();
    }
}

void
CoreModel::missDone(Outstanding *entry, Cycle when)
{
    entry->done = true;
    entry->doneCycle = when;
    sim_assert(outstandingMisses_ > 0, "miss completion underflow");
    --outstandingMisses_;

    switch (state_) {
      case State::BlockedRob:
        if (!window_.empty() && entry == &window_.front()) {
            state_ = State::Running;
            curCycle_ = std::max(curCycle_, when);
            scheduleRun(curCycle_);
        }
        break;
      case State::BlockedDep:
        if (entry == lastLoad_) {
            state_ = State::Running;
            curCycle_ = std::max(curCycle_, when);
            scheduleRun(curCycle_);
        }
        break;
      case State::BlockedMshr:
        state_ = State::Running;
        curCycle_ = std::max(curCycle_, when);
        scheduleRun(curCycle_);
        break;
      default:
        break;
    }
}

void
CoreModel::postedDone(Cycle when)
{
    sim_assert(outstandingMisses_ > 0, "posted completion underflow");
    --outstandingMisses_;
    if (state_ == State::BlockedMshr) {
        state_ = State::Running;
        curCycle_ = std::max(curCycle_, when);
        scheduleRun(curCycle_);
    }
}

void
CoreModel::park()
{
    state_ = State::Parked;
    if (onParked_)
        onParked_(id_);
}

void
CoreModel::run()
{
    std::uint32_t budget = params_.quantumOps;

    while (true) {
        if (instrRetired_ >= instrLimit_) {
            park();
            return;
        }
        if (budget-- == 0 || curCycle_ > eq_.now() + kSkewLimit) {
            // Yield so the event clock (and other cores) catch up.
            scheduleRun(curCycle_);
            return;
        }
        if (pendingStall_ > 0) {
            curCycle_ += pendingStall_;
            pendingStall_ = 0;
        }

        if (opPos_ == kOpBlock) {
            // Draw a block at once: the pattern and rng are this
            // core's alone, so the op sequence is unchanged, and the
            // draws' table loads overlap instead of each waiting
            // between two hierarchy walks.
            for (MemOp &o : ops_)
                o = pattern_.next(rng_);
            opPos_ = 0;
        }
        const MemOp &op = ops_[opPos_];

        // Retire the non-memory gap at the issue width.
        issueCarry_ += op.nonMemBefore + 1; // +1 for the memory op itself
        curCycle_ += issueCarry_ / params_.issueWidth;
        issueCarry_ %= params_.issueWidth;

        drainWindow();

        // Instruction fetch: one L1I probe per fetch group.
        sinceFetch_ += op.nonMemBefore + 1;
        if (sinceFetch_ >= kFetchGroup) {
            sinceFetch_ = 0;
            const Addr faddr = codeBase_ + codePos_;
            codePos_ = (codePos_ + kLineBytes) % params_.codeBytes;
            auto fres = hierarchy_.fetch(
                id_, faddr, MappingInfo{},
                [this](Cycle when) { postedDone(when); });
            if (fres.pending)
                ++outstandingMisses_;
        }

        // Reorder-window constraint: the new op must be within robSize
        // instructions of the oldest incomplete one.
        while (!window_.empty() &&
               instrSeq_ - window_.front().seq >= params_.robSize) {
            Outstanding &front = window_.front();
            if (!front.done) {
                state_ = State::BlockedRob;
                return;
            }
            curCycle_ = std::max(curCycle_, front.doneCycle);
            if (lastLoad_ == &front) {
                lastLoadDone_ = front.doneCycle;
                lastLoad_ = nullptr;
            }
            window_.pop_front();
        }

        // Dependence: pointer-chasing loads wait for the previous load.
        if (op.dependsOnPrev) {
            if (lastLoad_ && !lastLoad_->done) {
                state_ = State::BlockedDep;
                return;
            }
            const Cycle ready = lastLoad_ ? lastLoad_->doneCycle
                                          : lastLoadDone_;
            curCycle_ = std::max(curCycle_, ready);
        }

        // MSHR budget: block before issuing a new memory op when full.
        if (outstandingMisses_ >= params_.mshrs) {
            state_ = State::BlockedMshr;
            return;
        }

        // Address translation (adds page-walk latency on a TLB miss).
        const Tlb::LookupResult tr = tlb_.lookup(pageOf(op.addr));
        curCycle_ += tr.latency;

        if (op.isWrite) {
            // Stores are posted: they occupy an MSHR while below-L1 but
            // never block retirement.
            auto res = hierarchy_.access(
                id_, op.addr, true, tr.info,
                [this](Cycle when) { postedDone(when); });
            if (res.pending)
                ++outstandingMisses_;
        } else {
            window_.push_back(Outstanding{instrSeq_, 0, false});
            Outstanding *entry = &window_.back();
            auto res = hierarchy_.access(
                id_, op.addr, false, tr.info,
                [this, entry](Cycle when) { missDone(entry, when); });
            if (res.pending) {
                ++outstandingMisses_;
                lastLoad_ = entry;
            } else {
                entry->done = true;
                entry->doneCycle = curCycle_ + res.latency;
                lastLoad_ = entry;
            }
        }

        instrRetired_ += op.nonMemBefore + 1;
        ++instrSeq_;
        ++opPos_;
    }
}

} // namespace banshee
