/**
 * @file
 * Benchmark driver: builds one benchmark workload's System, times its
 * construction and its run(), and prints one JSON line with the host
 * timings, the deterministic RunResult fields and the component
 * counters read through System's public accessors.
 *
 *   simbench_driver --workload NAME --seed N --warmup INSTR
 *                   --measure INSTR
 *
 * INSTR is per core.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/banshee.hh"
#include "sim/system.hh"
#include "sim/system_config.hh"

using namespace banshee;

namespace {

/** The benchmark's workloads (see README.md for why each exists). */
bool
makeConfig(const std::string &name, SystemConfig &c)
{
    c = SystemConfig::scaledDefault();
    if (name == "mix1-banshee") {
        c.workload = "mix1";
        c.withScheme(SchemeKind::Banshee);
    } else if (name == "pagerank-nocache") {
        c.workload = "pagerank";
        c.withScheme(SchemeKind::NoCache);
    } else if (name == "tenant-qos") {
        // ext_tenant's resident/sched-on experiment, telemetry off.
        c.mem.inPkgCapacity = 8ull << 20;
        c.footprintScale = 1.0 / 16.0;
        c.hierarchy.l3Size = 512 * 1024;
        c.mem.numOffPkgChannels = 4;
        c.autoWarmup = false;
        const std::uint32_t half = c.numCores / 2;
        c.withTenants({{"resident", "qos_resident", 3.0, half},
                       {"churn", "qos_churn", 1.0, half}});
        c.withDramQos(/*epochCycles=*/8192, /*readAgeCap=*/4096,
                      /*writeAgeCap=*/16384, /*writeDrainHigh=*/24,
                      /*writeDrainLow=*/8);
    } else {
        return false;
    }
    return true;
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    if (*s == '\0' || *s == '-')
        return false;
    out = std::strtoull(s, &end, 10);
    return end != nullptr && *end == '\0';
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Minimal JSON object writer for one output line. */
class JsonLine
{
  public:
    void
    key(const char *k)
    {
        std::printf("%s\"%s\": ", first_ ? "{" : ", ", k);
        first_ = false;
    }

    void
    num(const char *k, double v)
    {
        key(k);
        putNum(v);
    }

    void
    num(const char *k, std::uint64_t v)
    {
        key(k);
        std::printf("%llu", static_cast<unsigned long long>(v));
    }

    void
    str(const char *k, const std::string &v)
    {
        key(k);
        std::printf("\"%s\"", v.c_str());
    }

    template <typename T>
    void
    list(const char *k, const T &values)
    {
        key(k);
        std::printf("[");
        bool firstItem = true;
        for (const auto &v : values) {
            std::printf(firstItem ? "" : ", ");
            putNum(v);
            firstItem = false;
        }
        std::printf("]");
    }

    void end() { std::printf("}\n"); }

  private:
    static void
    putNum(double v)
    {
        if (std::isfinite(v))
            std::printf("%.17g", v);
        else
            std::printf("null");
    }

    static void
    putNum(std::uint64_t v)
    {
        std::printf("%llu", static_cast<unsigned long long>(v));
    }

    bool first_ = true;
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "simbench_driver: %s\nusage: simbench_driver --workload "
                 "mix1-banshee|pagerank-nocache|tenant-qos --seed N "
                 "--warmup INSTR --measure INSTR\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0, warmup = 0, measure = 0;
    bool haveSeed = false, haveWarmup = false, haveMeasure = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        bool ok = true;
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            ok = haveSeed = parseU64(value, seed);
        } else if (flag == "--warmup") {
            ok = haveWarmup = parseU64(value, warmup);
        } else if (flag == "--measure") {
            ok = haveMeasure = parseU64(value, measure);
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
        if (!ok)
            return usage(("bad value for " + flag).c_str());
    }
    if (argc % 2 == 0)
        return usage("every flag needs a value");
    SystemConfig config;
    if (!makeConfig(workload, config))
        return usage(("unknown workload '" + workload + "'").c_str());
    if (!haveSeed || !haveWarmup || !haveMeasure || measure == 0)
        return usage("--seed, --warmup and --measure are required");
    config.seed = seed;
    config.warmupInstrPerCore = warmup;
    config.measureInstrPerCore = measure;

    const auto t0 = std::chrono::steady_clock::now();
    auto sys = std::make_unique<System>(config);
    const double setupSeconds = secondsSince(t0);

    const auto t1 = std::chrono::steady_clock::now();
    const RunResult r = sys->run();
    const double runSeconds = secondsSince(t1);

    // Component counters, read through System's public accessors.
    std::vector<std::uint64_t> coreInstr;
    std::uint64_t tlbHits = 0, tlbMisses = 0;
    for (CoreId c = 0; c < config.numCores; ++c) {
        coreInstr.push_back(sys->core(c).instrRetired());
        tlbHits += sys->tlb(c).hits();
        tlbMisses += sys->tlb(c).misses();
    }
    std::uint64_t dramRequests = 0, dramRowHits = 0;
    for (DramModel *dev :
         {sys->memSystem().inPkg(), sys->memSystem().offPkg()}) {
        if (!dev)
            continue;
        for (const auto &kv : dev->stats().all()) {
            const std::string &n = kv.first;
            auto endsWith = [&n](const char *suffix) {
                const std::size_t len = std::strlen(suffix);
                return n.size() >= len &&
                       n.compare(n.size() - len, len, suffix) == 0;
            };
            if (endsWith(".requests"))
                dramRequests += kv.second->value();
            else if (endsWith(".rowHits"))
                dramRowHits += kv.second->value();
        }
    }

    JsonLine j;
    j.str("workload", workload);
    j.num("seed", seed);
    j.num("warmup", warmup);
    j.num("measure", measure);
    j.num("setup_s", setupSeconds);
    j.num("run_s", runSeconds);
    j.list("core_instr", coreInstr);
    j.num("events", sys->totalEventsExecuted());
    j.num("instructions", r.instructions);
    j.num("cycles", static_cast<std::uint64_t>(r.cycles));
    j.num("ipc", r.ipc);
    j.list("inpkg_bytes", r.inPkgBytes);
    j.list("offpkg_bytes", r.offPkgBytes);
    j.list("inpkg_dyn_pj", r.inPkgDynPJ);
    j.list("offpkg_dyn_pj", r.offPkgDynPJ);
    j.list("static_pj", std::vector<double>{
                            r.inPkgBackgroundPJ, r.inPkgRefreshPJ,
                            r.inPkgActiveStandbyPJ, r.offPkgBackgroundPJ,
                            r.offPkgRefreshPJ, r.offPkgActiveStandbyPJ});
    j.num("energy_pj_per_instr", r.energyPerInstrPJ());
    j.num("llc_mpki", r.llcMpki);
    j.num("dram_cache_accesses", r.dramCacheAccesses);
    j.num("dram_cache_misses", r.dramCacheMisses);
    j.num("fetch_latency_cycles", r.avgFetchLatency);
    j.num("pte_update_runs", r.pteUpdateRuns);
    j.num("tag_buffer_hits", r.tagBufferHits);
    j.num("tag_buffer_misses", r.tagBufferMisses);
    j.num("replacements_blocked", r.replacementsBlocked);
    j.num("inpkg_bus_util", r.inPkgBusUtil);
    j.num("offpkg_bus_util", r.offPkgBusUtil);
    j.num("tlb_hits", tlbHits);
    j.num("tlb_misses", tlbMisses);
    j.num("dram_requests", dramRequests);
    j.num("dram_row_hits", dramRowHits);
    j.end();
    return 0;
}
