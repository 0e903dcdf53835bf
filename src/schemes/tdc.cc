#include "schemes/tdc.hh"

#include "common/log.hh"

namespace banshee {

TdcScheme::TdcScheme(const SchemeContext &ctx)
    : DramCacheScheme(ctx), numFrames_(ctx.cacheBytesPerMc / kPageBytes),
      framePage_(numFrames_)
{
    sim_assert(numFrames_ > 0, "TDC cache too small");
}

void
TdcScheme::demandFetch(LineAddr line, const MappingInfo &,
                       MissDoneFn done)
{
    const PageNum page = pageOfLine(line);
    const std::uint32_t lineIdx = lineInPage(line);
    const TenantId tenant = tenantOfAddr(lineToAddr(line));
    auto it = frameOf_.find(page);
    recordAccess(it != frameOf_.end(), tenant);

    if (it != frameOf_.end()) {
        it->second.residency.touch(lineIdx, false);
        const Addr dev = frameAddr(it->second.frameIdx) +
                         static_cast<Addr>(lineIdx) * kLineBytes;
        inPkgAccess(dev, kLineBytes, 0, false, TrafficCat::HitData,
                    std::move(done), tenant);
        return;
    }

    // Mapping is in the TLB (idealized): the miss goes straight to
    // off-package DRAM, no probe latency.
    offPkgRead64(line, TrafficCat::Demand, std::move(done), tenant);
    fill(page, lineIdx, tenant);
}

void
TdcScheme::evict(std::uint64_t frameIdx)
{
    const PageNum victim = framePage_[frameIdx];
    auto it = frameOf_.find(victim);
    sim_assert(it != frameOf_.end(), "FIFO page missing from map");

    footprint_.observe(it->second.residency.readGroups());
    const std::uint32_t dirtyLines =
        it->second.residency.dirtyGroups() * kFootprintGroupLines;
    if (dirtyLines > 0) {
        const Addr victimAddr = static_cast<Addr>(victim) * kPageBytes;
        const TenantId victimTenant = tenantOfAddr(victimAddr);
        inPkgBulk(frameAddr(frameIdx),
                  static_cast<std::uint64_t>(dirtyLines) * kLineBytes, false,
                  TrafficCat::Replacement, victimTenant);
        offPkgBulk(victimAddr,
                   static_cast<std::uint64_t>(dirtyLines) * kLineBytes, true,
                   TrafficCat::Writeback, victimTenant);
    }
    frameOf_.erase(it);
}

void
TdcScheme::fill(PageNum page, std::uint32_t lineIdx, TenantId tenant)
{
    const std::uint64_t frameIdx = fills_ % numFrames_;
    if (fills_++ >= numFrames_)
        evict(frameIdx);

    const std::uint32_t fillLines = footprint_.predictLines();
    offPkgBulk(static_cast<Addr>(page) * kPageBytes,
               static_cast<std::uint64_t>(fillLines) * kLineBytes, false,
               TrafficCat::Fill, tenant);
    inPkgBulk(frameAddr(frameIdx),
              static_cast<std::uint64_t>(fillLines) * kLineBytes, true,
              TrafficCat::Replacement, tenant);

    Frame frame;
    frame.frameIdx = frameIdx;
    frame.residency.touch(lineIdx, false);
    frameOf_.emplace(page, frame);
    framePage_[frameIdx] = page;
}

void
TdcScheme::demandWriteback(LineAddr line)
{
    const PageNum page = pageOfLine(line);
    const std::uint32_t lineIdx = lineInPage(line);
    const TenantId tenant = tenantOfAddr(lineToAddr(line));
    auto it = frameOf_.find(page);
    if (it != frameOf_.end()) {
        it->second.residency.touch(lineIdx, true);
        const Addr dev = frameAddr(it->second.frameIdx) +
                         static_cast<Addr>(lineIdx) * kLineBytes;
        inPkgAccess(dev, kLineBytes, 0, true, TrafficCat::HitData, nullptr,
                    tenant);
    } else {
        offPkgWrite64(line, TrafficCat::Writeback, tenant);
    }
}

} // namespace banshee
