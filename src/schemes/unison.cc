#include "schemes/unison.hh"

#include "common/log.hh"

namespace banshee {

UnisonScheme::UnisonScheme(const SchemeContext &ctx)
    : DramCacheScheme(ctx), metaBase_(ctx.cacheBytesPerMc),
      statReplacements_(stats_.counter("replacements"))
{
    const std::uint64_t frames = ctx.cacheBytesPerMc / kPageBytes;
    sim_assert(frames >= kWays, "unison cache too small");
    numSets_ = static_cast<std::uint32_t>(frames / kWays);
    ways_.assign(static_cast<std::uint64_t>(numSets_) * kWays, WayEntry{});
}

UnisonScheme::WayEntry *
UnisonScheme::findWay(std::uint32_t setIdx, PageNum page)
{
    WayEntry *set = &ways_[static_cast<std::uint64_t>(setIdx) * kWays];
    for (std::uint32_t w = 0; w < kWays; ++w) {
        if (set[w].valid && set[w].page == page)
            return &set[w];
    }
    return nullptr;
}

void
UnisonScheme::demandFetch(LineAddr line, const MappingInfo &,
                          MissDoneFn done)
{
    const PageNum page = pageOfLine(line);
    const std::uint32_t setIdx = setOf(page);
    const std::uint32_t lineIdx = lineInPage(line);
    const TenantId tenant = tenantOfAddr(lineToAddr(line));
    WayEntry *entry = findWay(setIdx, page);
    recordAccess(entry != nullptr, tenant);

    if (entry) {
        // Perfect way prediction: tags + predicted way data together
        // (96 B read), then the LRU-bit update (32 B write).
        entry->residency.touch(lineIdx, false);
        entry->lruStamp = lruCounter_++;
        const std::uint32_t way = static_cast<std::uint32_t>(
            entry - &ways_[static_cast<std::uint64_t>(setIdx) * kWays]);
        const Addr dev = frameAddr(setIdx, way) +
                         static_cast<Addr>(lineIdx) * kLineBytes;
        inPkgAccess(dev, 96, 32, false, TrafficCat::HitData,
                    std::move(done), tenant);
        inPkgAccess(tagRowAddr(setIdx), 32, 32, true, TrafficCat::Tag,
                    nullptr, tenant);
        return;
    }

    // Miss: speculative data + tag read first, then the demand fetch.
    inPkgAccess(tagRowAddr(setIdx), 96, 32, false, TrafficCat::MissData,
                [this, line, tenant, done = std::move(done)](Cycle) mutable {
                    offPkgRead64(line, TrafficCat::Demand, std::move(done),
                                 tenant);
                },
                tenant);
    replaceOnMiss(page, setIdx, lineIdx, tenant);
}

void
UnisonScheme::replaceOnMiss(PageNum page, std::uint32_t setIdx,
                            std::uint32_t lineIdx, TenantId tenant)
{
    ++statReplacements_;
    WayEntry *set = &ways_[static_cast<std::uint64_t>(setIdx) * kWays];
    std::uint32_t victimWay = 0;
    std::uint64_t best = ~0ull;
    for (std::uint32_t w = 0; w < kWays; ++w) {
        if (!set[w].valid) {
            victimWay = w;
            best = 0;
            break;
        }
        if (set[w].lruStamp < best) {
            best = set[w].lruStamp;
            victimWay = w;
        }
    }
    WayEntry &victim = set[victimWay];

    if (victim.valid) {
        footprint_.observe(victim.residency.readGroups());
        const std::uint32_t dirtyLines =
            victim.residency.dirtyGroups() * kFootprintGroupLines;
        if (dirtyLines > 0) {
            const Addr victimAddr = static_cast<Addr>(victim.page) * kPageBytes;
            const TenantId victimTenant = tenantOfAddr(victimAddr);
            inPkgBulk(frameAddr(setIdx, victimWay),
                      static_cast<std::uint64_t>(dirtyLines) * kLineBytes,
                      false, TrafficCat::Replacement, victimTenant);
            offPkgBulk(victimAddr,
                       static_cast<std::uint64_t>(dirtyLines) * kLineBytes,
                       true, TrafficCat::Writeback, victimTenant);
        }
    }

    // Footprint-sized fill (perfect predictor: charge the average
    // blocks touched per residency, 4-line granularity).
    const std::uint32_t fillLines = footprint_.predictLines();
    offPkgBulk(static_cast<Addr>(page) * kPageBytes,
               static_cast<std::uint64_t>(fillLines) * kLineBytes, false,
               TrafficCat::Fill, tenant);
    inPkgBulk(frameAddr(setIdx, victimWay),
              static_cast<std::uint64_t>(fillLines) * kLineBytes, true,
              TrafficCat::Replacement, tenant);
    // Tag update for the new page.
    inPkgAccess(tagRowAddr(setIdx), 32, 32, true, TrafficCat::Tag, nullptr,
                tenant);

    victim.page = page;
    victim.valid = true;
    victim.residency = PageResidency{};
    victim.residency.touch(lineIdx, false);
    victim.lruStamp = lruCounter_++;
}

void
UnisonScheme::demandWriteback(LineAddr line)
{
    const PageNum page = pageOfLine(line);
    const std::uint32_t setIdx = setOf(page);
    const std::uint32_t lineIdx = lineInPage(line);
    const TenantId tenant = tenantOfAddr(lineToAddr(line));

    // Tag read to decide hit/miss on the eviction path.
    inPkgAccess(tagRowAddr(setIdx), 32, 32, false, TrafficCat::Tag, nullptr,
                tenant);

    WayEntry *entry = findWay(setIdx, page);
    if (entry) {
        entry->residency.touch(lineIdx, true);
        const std::uint32_t way = static_cast<std::uint32_t>(
            entry - &ways_[static_cast<std::uint64_t>(setIdx) * kWays]);
        const Addr dev = frameAddr(setIdx, way) +
                         static_cast<Addr>(lineIdx) * kLineBytes;
        inPkgAccess(dev, kLineBytes, 0, true, TrafficCat::HitData, nullptr,
                    tenant);
        inPkgAccess(tagRowAddr(setIdx), 32, 32, true, TrafficCat::Tag,
                    nullptr, tenant);
    } else {
        offPkgWrite64(line, TrafficCat::Writeback, tenant);
    }
}

} // namespace banshee
