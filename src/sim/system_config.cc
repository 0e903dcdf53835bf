#include "sim/system_config.hh"

namespace banshee {

const char *
schemeKindName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::NoCache:
        return "NoCache";
      case SchemeKind::CacheOnly:
        return "CacheOnly";
      case SchemeKind::Alloy:
        return "Alloy";
      case SchemeKind::Unison:
        return "Unison";
      case SchemeKind::Tdc:
        return "TDC";
      case SchemeKind::Hma:
        return "HMA";
      case SchemeKind::Banshee:
        return "Banshee";
    }
    return "?";
}

SystemConfig
SystemConfig::scaledDefault()
{
    SystemConfig c;
    // Table 2 shape: 16 cores, 4-issue OoO; four in-package channels
    // and one off-package channel with identical DDR-1333 timing.
    c.mem.numMcs = 4;
    c.mem.numOffPkgChannels = 1;
    c.mem.inPkgCapacity = 128ull << 20;
    c.footprintScale = 1.0;
    c.autoWarmup = true;
    return c;
}

SystemConfig
SystemConfig::paperDefault()
{
    SystemConfig c = scaledDefault();
    c.mem.inPkgCapacity = 1ull << 30;
    c.footprintScale = 8.0;
    c.warmupInstrPerCore = 2'000'000;
    c.measureInstrPerCore = 4'000'000;
    return c;
}

SystemConfig
SystemConfig::testDefault()
{
    SystemConfig c = scaledDefault();
    c.mem.inPkgCapacity = 8ull << 20;
    c.footprintScale = 1.0 / 16.0;
    c.warmupInstrPerCore = 20'000;
    c.measureInstrPerCore = 30'000;
    return c;
}

SystemConfig &
SystemConfig::withScheme(SchemeKind kind)
{
    scheme = kind;
    return *this;
}

SystemConfig &
SystemConfig::withAlloyFillProb(double p)
{
    alloy.fillProbability = p;
    return *this;
}

SystemConfig &
SystemConfig::withResizeStep(std::uint64_t epoch, std::uint32_t targetSlices,
                             ResizeStrategy strategy)
{
    resize.enabled = true;
    resize.strategy = strategy;
    resize.policy.kind = ResizePolicyConfig::Kind::Schedule;
    resize.policy.schedule.push_back(ResizeStep{epoch, targetSlices});
    return *this;
}

SystemConfig &
SystemConfig::withPowerCap(double watts, std::uint32_t minSlices)
{
    resize.enabled = true;
    resize.strategy = ResizeStrategy::ConsistentHash;
    resize.policy.kind = ResizePolicyConfig::Kind::PowerCap;
    resize.policy.powerCapWatts = watts;
    resize.policy.minSlices = minSlices;
    return *this;
}

SystemConfig &
SystemConfig::withTenants(std::vector<TenantConfig> list, bool partition)
{
    tenants = std::move(list);
    resize.tenantWeights.clear();
    if (partition) {
        // Quotas ride the consistent-hash ring: partitioning implies
        // the resize subsystem (and therefore the Banshee scheme).
        resize.enabled = true;
        resize.strategy = ResizeStrategy::ConsistentHash;
        for (const TenantConfig &tc : tenants)
            resize.tenantWeights.push_back(tc.weight);
    }
    return *this;
}

SystemConfig &
SystemConfig::withQosArbiter(double capWatts)
{
    resize.enabled = true;
    resize.strategy = ResizeStrategy::ConsistentHash;
    resize.policy.kind = ResizePolicyConfig::Kind::Qos;
    resize.policy.powerCapWatts = capWatts;
    return *this;
}

SystemConfig &
SystemConfig::withDramQos(Cycle epochCycles, Cycle readAgeCap,
                          Cycle writeAgeCap, std::uint32_t writeDrainHigh,
                          std::uint32_t writeDrainLow)
{
    DramSchedConfig &s = mem.inPkgSched;
    s.qos = true;
    s.epochCycles = epochCycles;
    s.readAgeCap = readAgeCap;
    s.writeAgeCap = writeAgeCap;
    s.window = 64;
    if (writeDrainHigh > 0)
        s.writeDrainHigh = writeDrainHigh;
    if (writeDrainLow > 0)
        s.writeDrainLow = writeDrainLow;
    return *this;
}

SystemConfig &
SystemConfig::withTelemetry(Cycle epochCycles)
{
    telemetry.enabled = true;
    if (epochCycles > 0)
        telemetry.epochCycles = epochCycles;
    return *this;
}

SystemConfig &
SystemConfig::withSpanTrace(std::string path, std::uint32_t sampleShift)
{
    spans.enabled = true;
    spans.path = std::move(path);
    spans.sampleShift = sampleShift;
    return *this;
}

} // namespace banshee
