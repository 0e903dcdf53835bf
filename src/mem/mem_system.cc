#include "mem/mem_system.hh"

#include "common/log.hh"

namespace banshee {

MemSystem::MemSystem(EventQueue &eq, const MemSystemParams &params,
                     std::uint32_t stripeBits, bool inPkg, bool offPkg)
    : eq_(eq), params_(params), stripeBits_(stripeBits)
{
    if (inPkg) {
        inPkg_ = std::make_unique<DramModel>(eq_, params_.inPkgTiming,
                                             params_.numMcs,
                                             DramPowerParams::inPackage());
        inPkg_->setSchedConfig(params_.inPkgSched);
    }
    if (offPkg) {
        offPkg_ = std::make_unique<DramModel>(
            eq_, params_.offPkgTiming, params_.numOffPkgChannels,
            DramPowerParams::offPackage());
    }
    sim_assert(inPkg_ || offPkg_, "memory system needs at least one DRAM");
}

void
MemSystem::buildSchemes(const SchemeFactory &factory,
                        PageTableManager *pageTable, OsServices *os,
                        const TenantMap *tenants, std::uint64_t seed)
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
        ctx.tenants = tenants;
        ctx.seed = seed;
        schemes_.push_back(factory(ctx));
    }
}

void
MemSystem::fetchLine(LineAddr line, const MappingInfo &mapping,
                     MissDoneFn done)
{
    schemes_[mcOf(line)]->demandFetch(line, mapping, std::move(done));
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
    if (inPkg_)
        inPkg_->resetStats();
    if (offPkg_)
        offPkg_->resetStats();
    for (auto &s : schemes_)
        s->resetStats();
}

} // namespace banshee
