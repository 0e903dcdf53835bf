#include "schemes/hma.hh"

#include <algorithm>

#include "common/log.hh"

namespace banshee {

HmaScheme::HmaScheme(const SchemeContext &ctx, const HmaConfig &config)
    : DramCacheScheme(ctx), config_(config),
      statEpochs_(stats_.counter("epochs"))
{
    numFrames_ = ctx.cacheBytesPerMc / kPageBytes;
    sim_assert(numFrames_ > 0, "HMA partition too small");
    freeFrames_.reserve(numFrames_);
    for (std::uint64_t f = 0; f < numFrames_; ++f)
        freeFrames_.push_back(f);
    armEpoch();
}

void
HmaScheme::armEpoch()
{
    ctx_.eq->scheduleAfter(epochEvent_, config_.epoch);
}

void
HmaScheme::demandFetch(LineAddr line, const MappingInfo &,
                       MissDoneFn done)
{
    const PageNum page = pageOfLine(line);
    const TenantId tenant = tenantOfAddr(lineToAddr(line));
    ++counts_[page];
    auto it = resident_.find(page);
    recordAccess(it != resident_.end(), tenant);
    if (it != resident_.end()) {
        const Addr dev = frameAddr(it->second.frameIdx) +
                         (lineToAddr(line) & (kPageBytes - 1));
        inPkgAccess(dev, kLineBytes, 0, false, TrafficCat::HitData,
                    std::move(done), tenant);
    } else {
        offPkgRead64(line, TrafficCat::Demand, std::move(done), tenant);
    }
}

void
HmaScheme::demandWriteback(LineAddr line)
{
    const PageNum page = pageOfLine(line);
    const TenantId tenant = tenantOfAddr(lineToAddr(line));
    auto it = resident_.find(page);
    if (it != resident_.end()) {
        it->second.dirty = true;
        const Addr dev = frameAddr(it->second.frameIdx) +
                         (lineToAddr(line) & (kPageBytes - 1));
        inPkgAccess(dev, kLineBytes, 0, true, TrafficCat::HitData, nullptr,
                    tenant);
    } else {
        offPkgWrite64(line, TrafficCat::Writeback, tenant);
    }
}

void
HmaScheme::runEpoch()
{
    ++statEpochs_;

    // Rank all pages seen this epoch by access count.
    std::vector<std::pair<std::uint32_t, PageNum>> ranked;
    ranked.reserve(counts_.size());
    for (const auto &kv : counts_)
        ranked.emplace_back(kv.second, kv.first);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first > b.first
                                            : a.second < b.second;
              });

    // The hottest numFrames_ pages form the new resident set.
    std::unordered_map<PageNum, bool> target;
    const std::size_t keep =
        std::min<std::size_t>(ranked.size(), numFrames_);
    for (std::size_t i = 0; i < keep; ++i)
        target.emplace(ranked[i].second, true);

    // Evict pages that fell out of the hot set. Each migration is
    // charged to the moved page's tenant.
    std::uint64_t moved = 0;
    for (auto it = resident_.begin(); it != resident_.end();) {
        if (target.count(it->first)) {
            ++it;
            continue;
        }
        if (it->second.dirty) {
            const Addr addr = static_cast<Addr>(it->first) * kPageBytes;
            const TenantId tenant = tenantOfAddr(addr);
            inPkgBulk(frameAddr(it->second.frameIdx), kPageBytes, false,
                      TrafficCat::Replacement, tenant);
            offPkgBulk(addr, kPageBytes, true, TrafficCat::Writeback,
                       tenant);
        }
        freeFrames_.push_back(it->second.frameIdx);
        it = resident_.erase(it);
        ++moved;
    }

    // Fill newly hot pages into free frames.
    for (const auto &kv : target) {
        if (resident_.count(kv.first))
            continue;
        sim_assert(!freeFrames_.empty(), "HMA frame accounting error");
        const std::uint64_t frameIdx = freeFrames_.back();
        freeFrames_.pop_back();
        const Addr addr = static_cast<Addr>(kv.first) * kPageBytes;
        const TenantId tenant = tenantOfAddr(addr);
        offPkgBulk(addr, kPageBytes, false, TrafficCat::Fill, tenant);
        inPkgBulk(frameAddr(frameIdx), kPageBytes, true,
                  TrafficCat::Replacement, tenant);
        resident_[kv.first] = Resident{frameIdx, false};
        ++moved;
    }

    // The OS stops every program while it migrates and rewrites PTEs.
    if (ctx_.os) {
        ctx_.os->stallAllCores(config_.baseCost +
                               config_.perPageCost * moved);
    }

    // Counts decay across epochs (halved each one).
    for (auto &kv : counts_)
        kv.second /= 2;
}

} // namespace banshee
