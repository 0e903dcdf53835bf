#include "sim/system.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/units.hh"
#include "core/banshee.hh"
#include "schemes/alloy.hh"
#include "schemes/hma.hh"
#include "schemes/simple.hh"
#include "schemes/tdc.hh"
#include "schemes/unison.hh"
#include "telemetry/span_trace.hh"
#include "telemetry/telemetry.hh"
#include "workload/workloads.hh"

namespace banshee {

double
RunResult::inPkgBpi(TrafficCat c) const
{
    return instructions == 0
               ? 0.0
               : static_cast<double>(
                     inPkgBytes[static_cast<std::size_t>(c)]) /
                     instructions;
}

double
RunResult::offPkgBpi(TrafficCat c) const
{
    return instructions == 0
               ? 0.0
               : static_cast<double>(
                     offPkgBytes[static_cast<std::size_t>(c)]) /
                     instructions;
}

double
RunResult::inPkgTotalBpi() const
{
    double t = 0.0;
    for (std::size_t c = 0; c < kNumTrafficCats; ++c)
        t += static_cast<double>(inPkgBytes[c]);
    return instructions == 0 ? 0.0 : t / instructions;
}

double
RunResult::offPkgTotalBpi() const
{
    double t = 0.0;
    for (std::size_t c = 0; c < kNumTrafficCats; ++c)
        t += static_cast<double>(offPkgBytes[c]);
    return instructions == 0 ? 0.0 : t / instructions;
}

double
RunResult::totalEnergyPJ() const
{
    double t = inPkgBackgroundPJ + inPkgRefreshPJ + inPkgActiveStandbyPJ +
               offPkgBackgroundPJ + offPkgRefreshPJ +
               offPkgActiveStandbyPJ;
    for (std::size_t c = 0; c < kNumTrafficCats; ++c)
        t += inPkgDynPJ[c] + offPkgDynPJ[c];
    return t;
}

double
RunResult::energyPerInstrPJ() const
{
    return instructions == 0 ? 0.0 : totalEnergyPJ() / instructions;
}

double
RunResult::inPkgBgRefreshPJ() const
{
    return inPkgBackgroundPJ + inPkgRefreshPJ;
}

System::System(const SystemConfig &config)
    : config_(config),
      pageBits_(config.scheme == SchemeKind::Banshee ? config.banshee.pageBits
                                                     : kPageBits)
{
    // Fail fast on configurations that would otherwise trip deep
    // internal asserts. The core divides by its issue width and wraps
    // its code cursor modulo codeBytes; it needs an MSHR before it can
    // issue a miss, and a quantum of at least one op to make progress.
    const CoreParams &core = config.core;
    if (core.issueWidth == 0)
        fatal("core.issueWidth is 0 — it must be at least 1");
    if (core.mshrs == 0)
        fatal("core.mshrs is 0 — it must be at least 1");
    if (core.quantumOps == 0)
        fatal("core.quantumOps is 0 — it must be at least 1");
    if (core.codeBytes < kLineBytes) {
        fatal("core.codeBytes is %llu — it must be at least one %u B "
              "line",
              static_cast<unsigned long long>(core.codeBytes), kLineBytes);
    }

    if (config.tenants.empty()) {
        if (!WorkloadFactory::exists(config.workload)) {
            fatal("unknown workload '%s' — use a name from "
                  "WorkloadFactory::allNames() (e.g. mcf, pagerank) or "
                  "trace:<path>",
                  config.workload.c_str());
        }
    } else {
        tenants_ = std::make_unique<TenantMap>(config.tenants,
                                               config.numCores);
        for (std::uint32_t t = 0; t < tenants_->numTenants(); ++t) {
            const TenantConfig &tc =
                tenants_->config(static_cast<TenantId>(t));
            if (!WorkloadFactory::exists(tc.workload)) {
                fatal("tenant '%s': unknown workload '%s' — use a "
                      "per-core workload: a SPEC name (e.g. mcf) or "
                      "qos_resident / qos_churn",
                      tc.name.c_str(), tc.workload.c_str());
            }
            if (WorkloadFactory::isGraph(tc.workload)) {
                fatal("tenant '%s': graph workload '%s' shares one heap "
                      "and cannot be partitioned — give the tenant a "
                      "per-core workload: a SPEC name (e.g. mcf) or "
                      "qos_resident / qos_churn",
                      tc.name.c_str(), tc.workload.c_str());
            }
            if (tc.workload.rfind("trace:", 0) == 0) {
                fatal("tenant '%s': trace replay addresses were recorded "
                      "outside the per-core regions, so they cannot be "
                      "tenant-tagged — replay the trace in a "
                      "single-tenant run",
                      tc.name.c_str());
            }
        }
        // Each core's private heap region belongs to its tenant, so
        // every layer holding only an address (writebacks, the resize
        // scan, DRAM attribution) can recover the owner. The core's
        // code region is registered too: untagged pages walk to *any*
        // slice of a partitioned cache, so an unowned code page would
        // land in (and, under replace-on-miss, evict from) another
        // tenant's quota.
        for (CoreId c = 0; c < config.numCores; ++c) {
            const auto region = WorkloadFactory::privateRegion(c);
            tenants_->addRegion(region.first, region.second,
                                tenants_->tenantOfCore(c));
            const Addr codeBase =
                CoreModel::codeRegionBase(c, config.core);
            tenants_->addRegion(codeBase, codeBase + config.core.codeBytes,
                                tenants_->tenantOfCore(c));
        }
        if (!config.resize.tenantWeights.empty() &&
            config.resize.tenantWeights.size() != tenants_->numTenants()) {
            fatal("resize.tenantWeights has %zu entries for %u tenants — "
                  "give one weight per tenant (withTenants fills them)",
                  config.resize.tenantWeights.size(),
                  tenants_->numTenants());
        }
    }

    pageTable_ = std::make_unique<PageTableManager>();
    os_ = std::make_unique<OsServices>(eq_, *pageTable_, config.osCosts,
                                       config.seed);
    // Lines stripe over the controllers at the scheme's page size, so
    // each page stays on one controller (paper Section 4.3).
    mem_ = std::make_unique<MemSystem>(
        eq_, config.mem, pageBits_, config.scheme != SchemeKind::NoCache,
        config.scheme != SchemeKind::CacheOnly);

    if (config.enableBatman) {
        batman_ = std::make_unique<BatmanController>(
            eq_, mem_->inPkg(), mem_->offPkg(), config.batman);
    }

    // Scheme factory: one instance per memory controller.
    const SystemConfig &cfg = config_;
    BatmanController *batman = batman_.get();
    SchemeFactory factory = [&cfg,
                             batman](const SchemeContext &baseCtx)
        -> std::unique_ptr<DramCacheScheme> {
        SchemeContext ctx = baseCtx;
        ctx.batman = batman;
        switch (cfg.scheme) {
          case SchemeKind::NoCache:
            return std::make_unique<NoCacheScheme>(ctx);
          case SchemeKind::CacheOnly:
            return std::make_unique<CacheOnlyScheme>(ctx);
          case SchemeKind::Alloy:
            return std::make_unique<AlloyScheme>(ctx, cfg.alloy);
          case SchemeKind::Unison:
            return std::make_unique<UnisonScheme>(ctx);
          case SchemeKind::Tdc:
            return std::make_unique<TdcScheme>(ctx);
          case SchemeKind::Hma:
            return std::make_unique<HmaScheme>(ctx, cfg.hma);
          case SchemeKind::Banshee:
            return std::make_unique<BansheeScheme>(ctx, cfg.banshee);
        }
        panic("unhandled scheme kind");
    };
    mem_->buildSchemes(factory, pageTable_.get(), os_.get(), tenants_.get(),
                       config.seed);

    if (config.resize.enabled) {
        resize_ = std::make_unique<ResizeController>(eq_, *os_,
                                                     config.resize);
        for (std::uint32_t mc = 0; mc < mem_->numMcs(); ++mc) {
            ResizeHost *host = mem_->scheme(mc).resizeHost();
            if (host == nullptr) {
                fatal("resize enabled but scheme '%s' cannot resize — "
                      "use the Banshee scheme or turn resize off",
                      schemeKindName(config.scheme));
            }
            const std::uint32_t sets = host->numSets();
            const std::uint32_t slices = config.resize.hash.numSlices;
            if (sets < slices || sets % slices != 0) {
                fatal("resize needs each controller's set count to split "
                      "evenly over slices, but %u sets (inPkgCapacity "
                      "%llu B / %u MCs / 2^%u B pages / %u ways) do not "
                      "divide into %u slices — lower "
                      "resize.hash.numSlices, shrink pageBits, or grow "
                      "inPkgCapacity",
                      sets,
                      static_cast<unsigned long long>(
                          config.mem.inPkgCapacity),
                      config.mem.numMcs, config.banshee.pageBits,
                      config.banshee.ways, slices);
            }
            resize_->addHost(*host);
        }
        if (mem_->inPkg())
            resize_->attachPowerModel(&mem_->inPkg()->power());
        if (tenants_)
            resize_->attachTenants(tenants_.get());
    }

    // QoS channel scheduling: seed bandwidth entitlements from the
    // quota weights now; resize commits re-push shares as slices
    // change hands (attachQosDevice pushes the partition-based split).
    if (config.mem.inPkgSched.qos && mem_->inPkg()) {
        if (tenants_)
            mem_->inPkg()->setQosShares(tenants_->weightShares());
        if (resize_)
            resize_->attachQosDevice(mem_->inPkg());
    }

    HierarchyParams hp = config.hierarchy;
    hp.numCores = config.numCores;
    hierarchy_ = std::make_unique<CacheHierarchy>(eq_, hp, *mem_);

    for (CoreId c = 0; c < config.numCores; ++c) {
        tlbs_.push_back(std::make_unique<Tlb>(config.tlb, *pageTable_));
        // Multi-tenant runs: each core runs its tenant's workload,
        // partitioned over the tenant's cores.
        std::string workload = config.workload;
        std::uint32_t workloadCores = config.numCores;
        if (tenants_) {
            const TenantId t = tenants_->tenantOfCore(c);
            workload = tenants_->config(t).workload;
            workloadCores = tenants_->coreCount(t);
        }
        patterns_.push_back(WorkloadFactory::create(
            workload, c, workloadCores, config.footprintScale));
        cores_.push_back(std::make_unique<CoreModel>(
            c, config.core, eq_, *hierarchy_, *tlbs_[c], *patterns_[c],
            config.seed * 1000003ull + c));
        cores_[c]->onParked([this](CoreId) {
            ++parkedCount_;
            if (parkedCount_ == config_.numCores)
                eq_.requestStop();
        });
    }

    // Warmup budget scaling (see SystemConfig::autoWarmup): when the
    // workload is a pure sequential sweep whose aggregate footprint
    // fits the DRAM cache, measurement should start from steady-state
    // residency — raise warmup to cover two full passes.
    if (config_.autoWarmup && mem_->inPkg()) {
        std::uint64_t totalSweepBytes = 0;
        std::uint64_t maxSweepInstr = 0;
        bool allSweep = true;
        for (const auto &p : patterns_) {
            if (p->sweepBytes() == 0) {
                allSweep = false;
                break;
            }
            totalSweepBytes += p->sweepBytes();
            maxSweepInstr = std::max(maxSweepInstr, p->sweepInstr());
        }
        if (allSweep && totalSweepBytes <= config_.mem.inPkgCapacity) {
            config_.warmupInstrPerCore = std::max<std::uint64_t>(
                config_.warmupInstrPerCore, 2 * maxSweepInstr);
        }
    }

    // Register OS hooks last so stalls and shootdowns reach the cores.
    for (CoreId c = 0; c < config.numCores; ++c) {
        CoreModel *core = cores_[c].get();
        Tlb *tlb = tlbs_[c].get();
        os_->registerCore(OsServices::CoreHooks{
            [core](Cycle stall) { core->addStall(stall); },
            [tlb] { tlb->flushAll(); }});
    }

    if (config_.telemetry.enabled)
        buildTelemetry();
    if (config_.spans.enabled)
        buildSpanTrace();
}

void
System::buildTelemetry()
{
    telemetry_ = std::make_unique<Telemetry>(eq_, config_.telemetry);

    // System-wide gauges: cumulative as-of-sample; the summary script
    // turns adjacent-sample deltas into per-epoch rates.
    telemetry_->addGauge("instructions", [this] {
        std::uint64_t n = 0;
        for (const auto &core : cores_)
            n += core->instrRetired();
        return static_cast<double>(n);
    });
    telemetry_->addGauge("dramAccesses", [this] {
        return static_cast<double>(mem_->totalAccesses());
    });
    telemetry_->addGauge("dramMisses", [this] {
        return static_cast<double>(mem_->totalMisses());
    });
    if (mem_->inPkg()) {
        telemetry_->addGauge("inPkgEnergyPJ", [this] {
            return mem_->inPkg()->power().totalEnergyPJ(eq_.now());
        });
    }
    if (resize_) {
        telemetry_->addGauge("activeSlices", [this] {
            return static_cast<double>(resize_->activeSlices());
        });
        // The controller's counters, in the set's lexicographic order.
        for (const auto &[name, counter] : resize_->stats().all()) {
            telemetry_->addGauge("resize." + name, [&c = *counter] {
                return static_cast<double>(c.value());
            });
        }
        Histogram &batchLat = telemetry_->histogram("migration.batchLat");
        for (std::size_t d = 0; d < resize_->numDomains(); ++d)
            resize_->domain(d).setTelemetry(&batchLat);
    }

    if (tenants_) {
        for (std::uint32_t ti = 0; ti < tenants_->numTenants(); ++ti) {
            const TenantId t = static_cast<TenantId>(ti);
            const std::string base = "tenant." + tenants_->config(t).name;
            telemetry_->addGauge(base + ".slices", [this, t] {
                return resize_
                           ? static_cast<double>(resize_->slicesOwnedBy(t))
                           : 0.0;
            });
            telemetry_->addGauge(base + ".accesses", [this, t] {
                std::uint64_t n = 0;
                for (std::uint32_t mc = 0; mc < mem_->numMcs(); ++mc)
                    n += mem_->scheme(mc).tenantAccesses(t);
                return static_cast<double>(n);
            });
            telemetry_->addGauge(base + ".misses", [this, t] {
                std::uint64_t n = 0;
                for (std::uint32_t mc = 0; mc < mem_->numMcs(); ++mc)
                    n += mem_->scheme(mc).tenantMisses(t);
                return static_cast<double>(n);
            });
            telemetry_->nameTenantQueueLatency(tenantBucket(t),
                                               base + ".queueLat");
        }
    }

    // DRAM channel distributions. Only the in-package device splits
    // sojourns by tenant: that is the contended resource co-location
    // studies care about (PR 4's finding).
    auto attachChannels = [this](DramModel *dev, const char *prefix,
                                 bool tenantSplit) {
        if (!dev)
            return;
        for (std::uint32_t c = 0; c < dev->numChannels(); ++c) {
            ChannelTelemetry &ct = telemetry_->channelTelemetry(
                std::string(prefix) + ".ch" + std::to_string(c));
            if (tenantSplit && tenants_)
                ct.tenantQueueLatency = telemetry_->tenantQueueLatency();
            dev->channel(c).setTelemetry(&ct);
        }
    };
    attachChannels(mem_->inPkg(), "inpkg", true);
    attachChannels(mem_->offPkg(), "offpkg", false);
}

void
System::buildSpanTrace()
{
    // The sampler hashes page frames at the scheme's page granularity
    // so every hook — line-addressed fetches, page-addressed FBR and
    // migration — agrees on which pages are journaled.
    spans_ = std::make_unique<PageJournal>(config_.spans, pageBits_,
                                           config_.seed);
    spans_->controlInstant(
        PageJournal::kRunTrack, "run_info", 0,
        {{"workload", config_.workload},
         {"scheme", schemeKindName(config_.scheme)},
         {"label", config_.spans.runLabel},
         {"sampleShift", config_.spans.sampleShift},
         {"seed", config_.seed},
         {"pageBits", pageBits_},
         {"cores", config_.numCores},
         {"coreFreqHz", kCoreFreqHz},
         {"epochCycles", config_.telemetry.epochCycles},
         {"warmupInstrPerCore", config_.warmupInstrPerCore},
         {"measureInstrPerCore", config_.measureInstrPerCore}});

    hierarchy_->setSpanTrace(spans_.get());
    for (std::uint32_t mc = 0; mc < mem_->numMcs(); ++mc)
        mem_->scheme(mc).attachSpanTrace(spans_.get());

    auto attachChannels = [this](DramModel *dev, const char *prefix) {
        if (!dev)
            return;
        for (std::uint32_t c = 0; c < dev->numChannels(); ++c) {
            const std::uint32_t track = spans_->addChannelTrack(
                std::string(prefix) + ".ch" + std::to_string(c));
            dev->channel(c).setSpanTrace(spans_.get(), track);
        }
    };
    attachChannels(mem_->inPkg(), "inpkg");
    attachChannels(mem_->offPkg(), "offpkg");

    if (resize_)
        resize_->attachSpanTrace(spans_.get());

    if (tenants_) {
        for (std::uint32_t ti = 0; ti < tenants_->numTenants(); ++ti) {
            const TenantId t = static_cast<TenantId>(ti);
            spans_->controlInstant(
                PageJournal::kRunTrack, "tenant", 0,
                {{"id", ti},
                 {"name", tenants_->config(t).name},
                 {"weight", tenants_->weight(t)},
                 {"workload", tenants_->config(t).workload},
                 {"cores", tenants_->coreCount(t)}});
        }
    }
}

System::~System() = default;

void
System::runPhase(std::uint64_t instrLimit)
{
    parkedCount_ = 0;
    for (auto &core : cores_) {
        core->setInstrLimit(instrLimit);
        core->start();
    }
    eq_.run();
    sim_assert(parkedCount_ == config_.numCores,
               "event queue drained with %u/%u cores parked — "
               "a memory response was lost",
               parkedCount_, config_.numCores);
}

void
System::resetAllStats()
{
    mem_->resetStats();
    hierarchy_->resetStats();
    os_->stats().reset();
    if (resize_)
        resize_->resetStats();
    for (auto &tlb : tlbs_)
        tlb->resetStats();
}

RunResult
System::run()
{
    // Warmup: caches, predictors and counters learn; stats discarded.
    if (config_.warmupInstrPerCore > 0)
        runPhase(config_.warmupInstrPerCore);
    resetAllStats();
    if (spans_) {
        spans_->controlInstant(PageJournal::kRunTrack, "measure_start",
                               eq_.now());
    }
    if (telemetry_) {
        // Warmup-phase distributions would pollute the measured ones.
        telemetry_->resetHistograms();
        telemetry_->startEpochs(spans_.get());
    }
    // The resize epoch clock runs over the measured phase only, so
    // scripted schedules are phase-relative and deterministic.
    if (resize_)
        resize_->onMeasureStart();

    std::vector<Cycle> startCycle(config_.numCores);
    std::vector<std::uint64_t> startInstr(config_.numCores);
    for (CoreId c = 0; c < config_.numCores; ++c) {
        startCycle[c] = cores_[c]->localCycle();
        startInstr[c] = cores_[c]->instrRetired();
    }
    const Cycle startGlobal = eq_.now();

    runPhase(config_.warmupInstrPerCore + config_.measureInstrPerCore);

    return collect(startCycle, startInstr, startGlobal);
}

RunResult
System::collect(const std::vector<Cycle> &phaseStartCycle,
                const std::vector<std::uint64_t> &phaseStartInstr,
                Cycle phaseStartGlobal)
{
    if (telemetry_)
        telemetry_->finishEpochs();

    RunResult r;
    r.workload = config_.workload;
    r.scheme = schemeKindName(config_.scheme);
    if (config_.scheme == SchemeKind::Alloy) {
        r.scheme += config_.alloy.fillProbability >= 1.0 ? " 1" : " 0.1";
    }

    Cycle maxCycles = 0;
    std::uint64_t instr = 0;
    for (CoreId c = 0; c < config_.numCores; ++c) {
        const Cycle cycles = cores_[c]->localCycle() - phaseStartCycle[c];
        maxCycles = std::max(maxCycles, cycles);
        instr += cores_[c]->instrRetired() - phaseStartInstr[c];
    }
    r.cycles = std::max<Cycle>(maxCycles, 1);
    r.instructions = instr;
    r.ipc = static_cast<double>(instr) / r.cycles;

    r.dramCacheAccesses = mem_->totalAccesses();
    r.dramCacheMisses = mem_->totalMisses();
    r.missRate = r.dramCacheAccesses == 0
                     ? 0.0
                     : static_cast<double>(r.dramCacheMisses) /
                           r.dramCacheAccesses;
    r.mpki = instr == 0 ? 0.0
                        : 1000.0 * r.dramCacheMisses / instr;
    r.llcMpki = instr == 0
                    ? 0.0
                    : 1000.0 * hierarchy_->llcMisses() / instr;

    const Cycle elapsed =
        std::max<Cycle>(eq_.now() - phaseStartGlobal, 1);
    if (mem_->inPkg()) {
        for (std::size_t c = 0; c < kNumTrafficCats; ++c) {
            r.inPkgBytes[c] = mem_->inPkg()->traffic().bytes(
                static_cast<TrafficCat>(c));
        }
        r.inPkgBusUtil = mem_->inPkg()->busUtilization(elapsed);
        DramPowerModel &power = mem_->inPkg()->power();
        power.finalize(eq_.now());
        for (std::size_t c = 0; c < kNumTrafficCats; ++c) {
            r.inPkgDynPJ[c] =
                power.energy().dynamicPJ(static_cast<TrafficCat>(c));
        }
        r.inPkgBackgroundPJ = power.energy().backgroundPJ();
        r.inPkgRefreshPJ = power.energy().refreshPJ();
        r.inPkgActiveStandbyPJ = power.energy().activeStandbyPJ();
        r.inPkgAvgPowerWatts = power.averagePowerWatts(eq_.now());
    }
    if (mem_->offPkg()) {
        for (std::size_t c = 0; c < kNumTrafficCats; ++c) {
            r.offPkgBytes[c] = mem_->offPkg()->traffic().bytes(
                static_cast<TrafficCat>(c));
        }
        r.offPkgBusUtil = mem_->offPkg()->busUtilization(elapsed);
        DramPowerModel &power = mem_->offPkg()->power();
        power.finalize(eq_.now());
        for (std::size_t c = 0; c < kNumTrafficCats; ++c) {
            r.offPkgDynPJ[c] =
                power.energy().dynamicPJ(static_cast<TrafficCat>(c));
        }
        r.offPkgBackgroundPJ = power.energy().backgroundPJ();
        r.offPkgRefreshPJ = power.energy().refreshPJ();
        r.offPkgActiveStandbyPJ = power.energy().activeStandbyPJ();
        r.offPkgAvgPowerWatts = power.averagePowerWatts(eq_.now());
    }

    r.avgFetchLatency = hierarchy_->avgFetchLatency();
    r.pteUpdateRuns = os_->updateRuns();
    r.tlbShootdowns = os_->tlbShootdowns();

    for (std::uint32_t mc = 0; mc < mem_->numMcs(); ++mc) {
        if (auto *banshee =
                dynamic_cast<BansheeScheme *>(&mem_->scheme(mc))) {
            r.tagBufferHits += banshee->tagBuffer().hits();
            r.tagBufferMisses += banshee->tagBuffer().misses();
            r.replacementsBlocked += banshee->replacementsBlocked();
        }
    }

    r.qosSchedEnabled = config_.mem.inPkgSched.qos && mem_->inPkg() != nullptr;

    if (resize_) {
        r.resizesStarted = resize_->resizesStarted();
        r.resizesCompleted = resize_->resizesCompleted();
        r.pagesMigrated = resize_->pagesMigrated();
        r.dirtyPagesMigrated = resize_->dirtyPagesMigrated();
        r.finalActiveSlices = resize_->activeSlices();
        r.qosReassigns = resize_->reassignsCompleted();
    }

    if (tenants_) {
        r.tenants.resize(tenants_->numTenants());
        for (std::uint32_t ti = 0; ti < tenants_->numTenants(); ++ti) {
            const TenantId t = static_cast<TenantId>(ti);
            TenantRunStats &ts = r.tenants[ti];
            ts.name = tenants_->config(t).name;
            ts.weight = tenants_->weight(t);
            ts.cores = tenants_->coreCount(t);

            // A tenant's IPC is its own instructions over its slowest
            // core — the per-tenant mirror of the aggregate metric.
            Cycle tenantCycles = 0;
            for (CoreId c = 0; c < config_.numCores; ++c) {
                if (tenants_->tenantOfCore(c) != t)
                    continue;
                tenantCycles = std::max(
                    tenantCycles,
                    cores_[c]->localCycle() - phaseStartCycle[c]);
                ts.instructions +=
                    cores_[c]->instrRetired() - phaseStartInstr[c];
            }
            ts.cycles = std::max<Cycle>(tenantCycles, 1);
            ts.ipc = static_cast<double>(ts.instructions) / ts.cycles;

            for (std::uint32_t mc = 0; mc < mem_->numMcs(); ++mc) {
                ts.dramCacheAccesses += mem_->scheme(mc).tenantAccesses(t);
                ts.dramCacheMisses += mem_->scheme(mc).tenantMisses(t);
            }
            ts.missRate = ts.dramCacheAccesses == 0
                              ? 0.0
                              : static_cast<double>(ts.dramCacheMisses) /
                                    ts.dramCacheAccesses;

            if (mem_->inPkg()) {
                ts.inPkgBytes = mem_->inPkg()->traffic().tenantBytes(t);
                ts.inPkgDynPJ =
                    mem_->inPkg()->power().energy().tenantDynamicPJ(t);
                ts.qosGrants = mem_->inPkg()->traffic().qosGrants(t);
                ts.qosDefers = mem_->inPkg()->traffic().qosDefers(t);
            }
            if (mem_->offPkg()) {
                ts.offPkgBytes = mem_->offPkg()->traffic().tenantBytes(t);
                ts.offPkgDynPJ =
                    mem_->offPkg()->power().energy().tenantDynamicPJ(t);
            }
            if (resize_)
                ts.slicesOwned = resize_->slicesOwnedBy(t);
        }
    }

    if (telemetry_)
        r.histograms = telemetry_->summaries();
    if (spans_) {
        spans_->controlInstant(PageJournal::kRunTrack, "run_end", eq_.now(),
                               {{"instructions", r.instructions},
                                {"cycles", r.cycles},
                                {"ipc", r.ipc},
                                {"missRate", r.missRate},
                                {"finalActiveSlices", r.finalActiveSlices}});
        spans_->finish(eq_.now());
    }
    return r;
}

} // namespace banshee
