#include "core/banshee.hh"

#include <algorithm>

#include "common/log.hh"
#include "schemes/batman.hh"

namespace banshee {

namespace {

FbrParams
makeFbrParams(const SchemeContext &ctx, const BansheeConfig &config)
{
    FbrParams p;
    p.ways = config.ways;
    p.numCandidates = config.numCandidates;
    p.counterBits = config.counterBits;
    const std::uint64_t pageBytes = 1ull << config.pageBits;
    const std::uint64_t frames = ctx.cacheBytesPerMc / pageBytes;
    if (frames < config.ways) {
        fatal("banshee: each controller's %llu B cache partition holds "
              "%llu pages of 2^%u B, fewer than one %u-way set — grow "
              "inPkgCapacity, shrink pageBits or lower ways",
              static_cast<unsigned long long>(ctx.cacheBytesPerMc),
              static_cast<unsigned long long>(frames), config.pageBits,
              config.ways);
    }
    p.numSets = static_cast<std::uint32_t>(frames / config.ways);
    return p;
}

} // namespace

BansheeScheme::BansheeScheme(const SchemeContext &ctx,
                             const BansheeConfig &config)
    : DramCacheScheme(ctx), config_(config),
      dir_(makeFbrParams(ctx, config)), tagBuffer_(config.tagBuffer),
      missRate_(256, 0.25, 1.0),
      pageBytes_(1u << config.pageBits),
      metaBase_(ctx.cacheBytesPerMc),
      statInserts_(stats_.counter("pagesInserted")),
      statReplacementsBlocked_(stats_.counter("replacementsBlocked")),
      statCounterOverflows_(stats_.counter("counterOverflows"))
{
    const double lines = static_cast<double>(pageBytes_) / kLineBytes;
    threshold_ = config.replaceThreshold >= 0.0
                     ? config.replaceThreshold
                     : lines * config.samplingCoeff / 2.0;

    if (ctx_.os) {
        ctx_.os->registerTagBufferHarvester(
            [this] { return tagBuffer_.harvest(); });
    }
}

double
BansheeScheme::currentSampleRate() const
{
    switch (config_.policy) {
      case BansheeConfig::Policy::Fbr:
        return std::min(1.0, missRate_.value() * config_.samplingCoeff);
      case BansheeConfig::Policy::FbrNoSample:
        return 1.0;
      case BansheeConfig::Policy::LruEveryMiss:
        return 1.0;
    }
    return 1.0;
}

PageMapping
BansheeScheme::resolveMapping(PageNum page, std::uint32_t setIdx,
                              const MappingInfo &carried, bool &tbHit)
{
    const std::optional<PageMapping> tb = tagBuffer_.lookup(page);
    tbHit = tb.has_value();
    if (tbHit)
        return *tb;

    // Tag Buffer miss: the tags hold the mapping, and the
    // lazy-coherence invariant says the PTE already agrees with them.
    PageMapping tags;
    if (auto way = dir_.findCached(setIdx, page))
        tags = PageMapping{true, static_cast<std::uint8_t>(*way)};
    sim_assert(ctx_.pageTable->committedMapping(page) == tags,
               "stale PTE without a tag-buffer entry (page %llx)",
               static_cast<unsigned long long>(page));
    if (config_.pageBits == kPageBits && carried.valid &&
        !(PageMapping{carried.cached, carried.way} == tags)) {
        // A request carried stale bits yet the buffer missed: the
        // design's safety argument would be broken.
        panic("request carried stale mapping that the tag buffer "
              "did not correct (page %llx)",
              static_cast<unsigned long long>(page));
    }

    tagBuffer_.insertClean(page, tags);
    return tags;
}

void
BansheeScheme::chargeMetadataRw(std::uint32_t setIdx, TrafficCat cat,
                                TenantId tenant, PageNum spanPage)
{
    inPkgAccess(metaAddr(setIdx), 32, 0, false, cat, nullptr, tenant,
                spanPage);
    inPkgAccess(metaAddr(setIdx), 32, 0, true, cat, nullptr, tenant,
                spanPage);
}

void
BansheeScheme::demandFetch(LineAddr line, const MappingInfo &mapping,
                           MissDoneFn done)
{
    const PageNum page = pageOfLine64(line);
    const TenantId tenant = tenantOfAddr(lineToAddr(line));
    const std::uint32_t setIdx = setOf(page);
    bool tbHit = false;
    const PageMapping m = resolveMapping(page, setIdx, mapping, tbHit);

    recordAccess(m.cached, tenant);
    missRate_.record(!m.cached);

    const PageNum spanPage = spanPageOf(page);
    if (spanPage != kNoSpanPage) {
        spans_->pageInstant(page, "access", ctx_.eq->now(),
                            {{"tb", tbHit ? "hit" : "miss"},
                             {"cache", m.cached ? "hit" : "miss"},
                             {"tenant", static_cast<std::uint32_t>(tenant)}});
    }

    if (config_.policy == BansheeConfig::Policy::LruEveryMiss)
        lruTouchAndReplace(page, setIdx, m.cached, m.way, tenant);
    else
        fbrSampleAndReplace(page, setIdx, m.cached, m.way, tenant);

    if (m.cached) {
        const Addr dev = frameAddr(setIdx, m.way) +
                         (lineToAddr(line) & (pageBytes_ - 1));
        inPkgAccess(dev, kLineBytes, 0, false, TrafficCat::HitData,
                    std::move(done), tenant, spanPage);
    } else {
        offPkgRead64(line, TrafficCat::Demand, std::move(done), tenant,
                     spanPage);
    }
}

void
BansheeScheme::demandWriteback(LineAddr line)
{
    const PageNum page = pageOfLine64(line);
    const TenantId tenant = tenantOfAddr(lineToAddr(line));
    const std::uint32_t setIdx = setOf(page);
    const PageNum spanPage = spanPageOf(page);

    // No mapping rides the eviction path: a Tag Buffer miss probes the
    // tags in the DRAM cache (32 B read), and the clean copy it leaves
    // spares the next eviction of this page the probe (Section 3.3).
    bool tbHit = false;
    const PageMapping m = resolveMapping(page, setIdx, MappingInfo{}, tbHit);
    if (!tbHit) {
        inPkgAccess(metaAddr(setIdx), 32, 32, false, TrafficCat::Tag,
                    nullptr, tenant, spanPage);
    }

    if (spanPage != kNoSpanPage) {
        spans_->pageInstant(page, "writeback", ctx_.eq->now(),
                            {{"dest", m.cached ? "inpkg" : "offpkg"},
                             {"tag_probe", tbHit ? 0 : 1}});
    }

    if (m.cached) {
        const Addr dev = frameAddr(setIdx, m.way) +
                         (lineToAddr(line) & (pageBytes_ - 1));
        inPkgAccess(dev, kLineBytes, 0, true, TrafficCat::HitData, nullptr,
                    tenant, spanPage);
        dir_.cached(setIdx, m.way).dirty = true;
    } else {
        offPkgWrite64(line, TrafficCat::Writeback, tenant, spanPage);
    }
}

void
BansheeScheme::fbrSampleAndReplace(PageNum page, std::uint32_t setIdx,
                                   bool hit, std::uint8_t hitWay,
                                   TenantId tenant)
{
    // BATMAN bandwidth balancing: bypassed pages are not tracked or
    // cached (already-cached ones keep hitting and age out).
    if (!hit && ctx_.batman && ctx_.batman->shouldBypass(page))
        return;
    if (!rng_.nextBool(currentSampleRate()))
        return;

    const PageNum spanPage = spanPageOf(page);
    chargeMetadataRw(setIdx, TrafficCat::Counter, tenant, spanPage);

    if (hit) {
        // Algorithm 1 lines 5-6: increment; halve all on saturation.
        if (dir_.incrementCached(setIdx, hitWay)) {
            ++statCounterOverflows_;
            dir_.halveAll(setIdx);
        }
        return;
    }

    if (auto slot = dir_.findCandidate(setIdx, page)) {
        const bool saturated = dir_.incrementCandidate(setIdx, *slot);
        const std::uint32_t victimWay = dir_.minCountWay(setIdx);
        const double victimCount = dir_.wayCount(setIdx, victimWay);
        const double candCount = dir_.candidate(setIdx, *slot).count;
        // Algorithm 1 line 7: replace only when the candidate leads
        // the coldest cached page by the bandwidth-aware threshold.
        if (candCount > victimCount + threshold_) {
            // "fbr_admit" records the decision; a tag-buffer-blocked
            // replacement still shows up as admit + repl_blocked.
            if (spanPage != kNoSpanPage) {
                spans_->pageInstant(page, "fbr_admit", ctx_.eq->now(),
                                    {{"cand", candCount},
                                     {"victim", victimCount},
                                     {"threshold", threshold_}});
            }
            executeReplacement(page, setIdx, victimWay, tenant);
        } else if (spanPage != kNoSpanPage) {
            spans_->pageInstant(page, "fbr_reject", ctx_.eq->now(),
                                {{"cand", candCount},
                                 {"victim", victimCount},
                                 {"threshold", threshold_}});
        }
        if (saturated) {
            ++statCounterOverflows_;
            dir_.halveAll(setIdx);
        }
        return;
    }

    // Algorithm 1 lines 17-23: takeover of a random candidate slot
    // with probability 1/victim.count.
    const std::uint32_t slot = static_cast<std::uint32_t>(
        rng_.nextBelow(dir_.numCandidates()));
    FbrDirectory::CandidateEntry &victim = dir_.candidate(setIdx, slot);
    if (!victim.valid || victim.count == 0 ||
        rng_.nextDouble() < 1.0 / victim.count) {
        victim.tag = page;
        victim.count = 1;
        victim.valid = true;
    }
}

void
BansheeScheme::lruTouchAndReplace(PageNum page, std::uint32_t setIdx,
                                  bool hit, std::uint8_t hitWay,
                                  TenantId tenant)
{
    // LRU bits live in the same tag rows: every access reads and
    // updates them — the bandwidth cost Unison pays (Table 1).
    chargeMetadataRw(setIdx, TrafficCat::Counter, tenant,
                     spanPageOf(page));

    if (hit) {
        dir_.cached(setIdx, hitWay).lruStamp = lruStampCounter_++;
        return;
    }

    // Replace on every miss: victim is the LRU way.
    std::uint32_t victimWay = 0;
    std::uint64_t best = ~0ull;
    for (std::uint32_t w = 0; w < dir_.ways(); ++w) {
        const auto &e = dir_.cached(setIdx, w);
        if (!e.valid) {
            victimWay = w;
            best = 0;
            break;
        }
        if (e.lruStamp < best) {
            best = e.lruStamp;
            victimWay = w;
        }
    }

    // The incoming page must be a candidate slot for promote();
    // fabricate one (slot 0) — the LRU ablation does not track
    // candidate frequency.
    FbrDirectory::CandidateEntry &slot0 = dir_.candidate(setIdx, 0);
    slot0.tag = page;
    slot0.count = 1;
    slot0.valid = true;
    executeReplacement(page, setIdx, victimWay, tenant);
    dir_.cached(setIdx, victimWay).lruStamp = lruStampCounter_++;
}

void
BansheeScheme::executeReplacement(PageNum page, std::uint32_t setIdx,
                                  std::uint32_t way, TenantId tenant)
{
    const FbrDirectory::CachedEntry &pre = dir_.cached(setIdx, way);
    const PageNum spanPage = spanPageOf(page);
    // The OS PTE-update routine locks replacements while it runs.
    const bool locked = ctx_.os && ctx_.os->updateInProgress();
    if (locked || !tagBuffer_.canAcceptRemaps(2) ||
        !tagBuffer_.canInsertRemapPair(page, pre.valid, pre.tag)) {
        ++statReplacementsBlocked_;
        if (spanPage != kNoSpanPage) {
            spans_->pageInstant(page, "repl_blocked", ctx_.eq->now(),
                                {{"locked", locked ? 1 : 0}});
        }
        if (!locked && ctx_.os)
            ctx_.os->requestPteUpdate();
        return;
    }

    const auto slot = dir_.findCandidate(setIdx, page);
    sim_assert(slot.has_value(), "replacement without candidate entry");

    // Data movement: fetch the page from off-package DRAM and write
    // it into the frame; a dirty victim makes the round trip back,
    // charged to the victim page's own tenant.
    offPkgBulk(pageAddr(page), pageBytes_, false, TrafficCat::Fill, tenant,
               spanPage);
    inPkgBulk(frameAddr(setIdx, way), pageBytes_, true,
              TrafficCat::Replacement, tenant, spanPage);

    const FbrDirectory::CachedEntry victim = dir_.promote(setIdx, way,
                                                          *slot);
    ++statInserts_;
    if (spanPage != kNoSpanPage) {
        spans_->residentBegin(page, ctx_.eq->now(),
                              {{"set", setIdx},
                               {"way", way},
                               {"tenant", static_cast<std::uint32_t>(tenant)}});
    }
    if (victim.valid) {
        const PageNum victimSpan = spanPageOf(victim.tag);
        if (victim.dirty) {
            const TenantId victimTenant = pageTenant(victim.tag);
            inPkgBulk(frameAddr(setIdx, way), pageBytes_, false,
                      TrafficCat::Replacement, victimTenant, victimSpan);
            offPkgBulk(pageAddr(victim.tag), pageBytes_, true,
                       TrafficCat::Writeback, victimTenant, victimSpan);
        }
        if (victimSpan != kNoSpanPage) {
            spans_->residentEnd(victim.tag, ctx_.eq->now(), "replaced",
                                victim.dirty);
        }
    }

    // The tags changed above; PTEs learn of it lazily through the
    // Tag Buffer's remap entries.
    bool ok = tagBuffer_.insertRemap(
        page, PageMapping{true, static_cast<std::uint8_t>(way)});
    sim_assert(ok, "tag buffer rejected remap after capacity check");
    if (victim.valid) {
        ok = tagBuffer_.insertRemap(victim.tag, PageMapping{});
        sim_assert(ok, "tag buffer rejected victim remap");
        // If the victim was awaiting resize migration its drain is
        // moot; future accesses must use the new slice layout.
        if (resizeDomain_)
            resizeDomain_->notifyFrameEvicted(victim.tag);
    }

    if (tagBuffer_.needsFlush() && ctx_.os)
        ctx_.os->requestPteUpdate();
}

// --------------------------------------------------------------------
// ResizeHost: the hooks the dynamic-resizing subsystem drains through.
// --------------------------------------------------------------------

void
BansheeScheme::forEachResident(
    const std::function<void(std::uint32_t, std::uint32_t, PageNum, bool)>
        &fn)
{
    dir_.forEachValid([&fn](std::uint32_t setIdx, std::uint32_t way,
                            const FbrDirectory::CachedEntry &e) {
        fn(setIdx, way, e.tag, e.dirty);
    });
}

bool
BansheeScheme::residentAt(std::uint32_t setIdx, std::uint32_t way,
                          PageNum page)
{
    const FbrDirectory::CachedEntry &e = dir_.cached(setIdx, way);
    return e.valid && e.tag == page;
}

bool
BansheeScheme::canEvictFrame(PageNum page) const
{
    // Same admission discipline as a replacement: the un-mapping must
    // land in the tag buffer or stale TLB bits could go uncorrected.
    return tagBuffer_.canAcceptRemaps(1) &&
           tagBuffer_.canInsertRemapPair(page, false, 0);
}

bool
BansheeScheme::evictFrame(std::uint32_t setIdx, std::uint32_t way)
{
    FbrDirectory::CachedEntry &e = dir_.cached(setIdx, way);
    sim_assert(e.valid, "resize drain of an empty frame");
    const PageNum page = e.tag;
    const bool wasDirty = e.dirty;

    // A dirty page makes the round trip through the DRAM models so
    // migration competes with demand traffic for bus time; a clean
    // page is dropped for free (its off-package copy is current).
    const PageNum spanPage = spanPageOf(page);
    if (wasDirty) {
        const TenantId tenant = pageTenant(page);
        inPkgBulk(frameAddr(setIdx, way), pageBytes_, false,
                  TrafficCat::Migration, tenant, spanPage);
        offPkgBulk(pageAddr(page), pageBytes_, true, TrafficCat::Migration,
                   tenant, spanPage);
    }
    if (spanPage != kNoSpanPage)
        spans_->residentEnd(page, ctx_.eq->now(), "migration", wasDirty);
    dir_.invalidate(setIdx, way);

    // Publish the un-mapping exactly like a replacement victim's: a
    // tag-buffer remap entry, so PTEs and TLBs learn of it at the next
    // batch commit.
    const bool ok = tagBuffer_.insertRemap(page, PageMapping{});
    sim_assert(ok, "tag buffer rejected resize remap after admission check");
    if (tagBuffer_.needsFlush() && ctx_.os)
        ctx_.os->requestPteUpdate();
    return wasDirty;
}

void
BansheeScheme::requestMappingCommit()
{
    if (ctx_.os)
        ctx_.os->requestPteUpdate();
}

void
BansheeScheme::verifyResidencyConsistent()
{
    dir_.forEachValid([this](std::uint32_t setIdx, std::uint32_t way,
                             const FbrDirectory::CachedEntry &e) {
        if (resizeDomain_) {
            sim_assert(resizeDomain_->layout().isActive(
                           resizeDomain_->sliceOfSet(setIdx)),
                       "resident frame in an inactive slice (set %u)", setIdx);
        }
        sim_assert(setOf(e.tag) == setIdx,
                   "frame not at its page's home set (page %llx)",
                   static_cast<unsigned long long>(e.tag));
        // Lazy coherence: a PTE that lags the tags has a remap entry
        // carrying them.
        const PageMapping tags{true, static_cast<std::uint8_t>(way)};
        const auto remap = tagBuffer_.pendingRemap(e.tag);
        sim_assert(ctx_.pageTable->committedMapping(e.tag) == tags ||
                       (remap && *remap == tags),
                   "stale PTE without a tag-buffer entry (page %llx)",
                   static_cast<unsigned long long>(e.tag));
    });
}

} // namespace banshee
