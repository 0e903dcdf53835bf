#include "schemes/alloy.hh"

#include "common/log.hh"
#include "schemes/batman.hh"

namespace banshee {

AlloyScheme::AlloyScheme(const SchemeContext &ctx, const AlloyConfig &config)
    : DramCacheScheme(ctx), config_(config),
      statFills_(stats_.counter("fills")),
      statFillsSkipped_(stats_.counter("fillsSkipped")),
      statVictimWritebacks_(stats_.counter("victimWritebacks"))
{
    numSets_ = ctx.cacheBytesPerMc / kTadStorageBytes;
    sim_assert(numSets_ > 0, "alloy cache too small");
    tags_.assign(numSets_, 0);
    state_.assign(numSets_, 0);
}

void
AlloyScheme::demandFetch(LineAddr line, const MappingInfo &,
                         MissDoneFn done)
{
    const std::uint64_t set = setOf(line);
    const TenantId tenant = tenantOfAddr(lineToAddr(line));
    const bool hit = (state_[set] & 1) && tags_[set] == line;
    recordAccess(hit, tenant);

    if (hit) {
        // One 96 B TAD read: data plus the tag burst.
        inPkgAccess(tadAddr(set), 96, 32, false, TrafficCat::HitData,
                    std::move(done), tenant);
        return;
    }

    // Miss: the probe must complete before the off-package fetch
    // (the parallel speculative fetch is disabled, Section 5.1.1).
    inPkgAccess(tadAddr(set), 96, 32, false, TrafficCat::MissData,
                [this, line, tenant, done = std::move(done)](Cycle) mutable {
                    offPkgRead64(line, TrafficCat::Demand, std::move(done),
                                 tenant);
                },
                tenant);
    maybeFill(line, set, tenant);
}

void
AlloyScheme::maybeFill(LineAddr line, std::uint64_t set, TenantId tenant)
{
    if (ctx_.batman && ctx_.batman->shouldBypass(pageOfLine(line))) {
        ++statFillsSkipped_;
        return;
    }
    if (!rng_.nextBool(config_.fillProbability)) {
        ++statFillsSkipped_;
        return;
    }
    ++statFills_;
    // Victim data was already read by the speculative TAD access, so
    // a dirty victim costs only the off-package write (BEAR fill).
    if ((state_[set] & 1) && (state_[set] & 2)) {
        ++statVictimWritebacks_;
        offPkgWrite64(tags_[set], TrafficCat::Writeback,
                      tenantOfAddr(lineToAddr(tags_[set])));
    }
    // Fill writes data + tag as one TAD.
    inPkgAccess(tadAddr(set), 96, 32, true, TrafficCat::Replacement,
                nullptr, tenant);
    tags_[set] = line;
    state_[set] = 1; // valid, clean
}

void
AlloyScheme::demandWriteback(LineAddr line)
{
    const std::uint64_t set = setOf(line);
    const TenantId tenant = tenantOfAddr(lineToAddr(line));
    // BEAR writeback probe: a 32 B tag read decides hit/miss.
    inPkgAccess(tadAddr(set), 32, 32, false, TrafficCat::Tag, nullptr,
                tenant);

    const bool hit = (state_[set] & 1) && tags_[set] == line;
    if (hit) {
        inPkgAccess(tadAddr(set), 96, 32, true, TrafficCat::HitData,
                    nullptr, tenant);
        state_[set] |= 2; // dirty
    } else {
        // No write-allocate on the eviction path.
        offPkgWrite64(line, TrafficCat::Writeback, tenant);
    }
}

} // namespace banshee
