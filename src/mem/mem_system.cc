#include "mem/mem_system.hh"

#include "common/log.hh"

namespace banshee {

MemSystem::MemSystem(EventQueue &eq, const MemSystemParams &params)
    : eq_(eq), params_(params),
      statFetchesCompleted_(stats_.counter("fetchesCompleted")),
      statFetchLatencyTotal_(stats_.counter("fetchLatencyTotal"))
{
    if (params_.hasInPkg) {
        inPkg_ = std::make_unique<DramModel>(eq_, params_.inPkgTiming,
                                             params_.numMcs,
                                             params_.inPkgPower);
        inPkg_->setSchedConfig(params_.inPkgSched);
    }
    if (params_.hasOffPkg) {
        offPkg_ = std::make_unique<DramModel>(
            eq_, params_.offPkgTiming, params_.numOffPkgChannels,
            params_.offPkgPower);
    }
    sim_assert(inPkg_ || offPkg_, "memory system needs at least one DRAM");
}

void
MemSystem::buildSchemes(const SchemeFactory &factory,
                        PageTableManager *pageTable, OsServices *os,
                        std::uint64_t seed)
{
    schemes_.clear();
    for (std::uint32_t mc = 0; mc < params_.numMcs; ++mc) {
        SchemeContext ctx;
        ctx.eq = &eq_;
        ctx.inPkg = inPkg_.get();
        ctx.offPkg = offPkg_.get();
        ctx.mcId = mc;
        ctx.numMcs = params_.numMcs;
        ctx.cacheBytesPerMc = params_.inPkgCapacity / params_.numMcs;
        ctx.pageTable = pageTable;
        ctx.os = os;
        ctx.tenants = tenants_;
        ctx.seed = seed;
        schemes_.push_back(factory(ctx));
    }
}

void
MemSystem::fetchLine(LineAddr line, const MappingInfo &mapping, CoreId core,
                     MissDoneFn done)
{
    std::uint32_t slot;
    if (freeFetches_.empty()) {
        slot = static_cast<std::uint32_t>(fetches_.size());
        fetches_.emplace_back();
    } else {
        slot = freeFetches_.back();
        freeFetches_.pop_back();
    }
    Fetch &f = fetches_[slot];
    f.issued = eq_.now();
    // Span tracing: tag the fetch with its (sampled) page so the
    // completion can stitch an issue->complete span. The page number
    // is at the journal's granularity, which matches the scheme's
    // (System wires both from the same config).
    f.spans = (spans_ && spans_->sampledAddr(lineToAddr(line))) ? spans_
                                                                : nullptr;
    f.spanPage = f.spans ? (lineToAddr(line) >> f.spans->pageBits()) : 0;
    f.done = std::move(done);
    schemes_[mcOf(line)]->demandFetch(
        line, mapping, core,
        [this, slot](Cycle when) { fetchDone(slot, when); });
}

void
MemSystem::fetchDone(std::uint32_t slot, Cycle when)
{
    Fetch &f = fetches_[slot];
    ++statFetchesCompleted_;
    statFetchLatencyTotal_ += when > f.issued ? when - f.issued : 0;
    if (f.spans)
        f.spans->fetchSpan(f.spanPage, f.issued, when);
    // Free the slot before calling back: done may re-enter fetchLine,
    // which can reuse the slot or grow the vector.
    MissDoneFn done = std::move(f.done);
    freeFetches_.push_back(slot);
    if (done)
        done(when);
}

void
MemSystem::writebackLine(LineAddr line)
{
    schemes_[mcOf(line)]->demandWriteback(line);
}

std::uint64_t
MemSystem::totalAccesses() const
{
    std::uint64_t n = 0;
    for (const auto &s : schemes_)
        n += s->accesses();
    return n;
}

std::uint64_t
MemSystem::totalMisses() const
{
    std::uint64_t n = 0;
    for (const auto &s : schemes_)
        n += s->misses();
    return n;
}

void
MemSystem::resetStats()
{
    stats_.reset();
    if (inPkg_)
        inPkg_->resetStats();
    if (offPkg_)
        offPkg_->resetStats();
    for (auto &s : schemes_)
        s->resetStats();
}

} // namespace banshee
