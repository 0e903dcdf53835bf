/**
 * @file
 * Extension: a consolidation-scale sweep through the parallel sweep
 * runner.
 *
 * The paper's evaluation — and the mode-comparison sweeps framed by
 * "Die-Stacked DRAM: Memory, Cache, or MemCache?" — multiply scheme
 * × capacity × tenant grids until the simulator itself is the
 * bottleneck. This bench drives a 64-core / 16-tenant consolidation
 * node over a scheme × cache-capacity grid (plus quota-partitioned
 * Banshee points) and prints each experiment's simulated IPC and
 * miss rate, plus the sweep's wall-clock time.
 *
 * Each experiment is an isolated System (see the contract note in
 * sim/runner.hh), so with N worker threads the sweep's wall time
 * should shrink toward 1/N of the serial figure. Run with
 * --compare-serial to measure the ratio on this machine: the same
 * grid is re-run at --threads 1, each experiment's IPC and cycle
 * count are asserted equal across the two runs, and the speedup is
 * printed.
 *
 * The --json output is independent of the thread count; the quick
 * grid's output is the committed golden
 * bench/baselines/BENCH_ext_scale_quick.json. Per-layer host time
 * and simulated instructions per host second are measured by
 * simbench/, not here.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace banshee;
using namespace banshee::benchutil;

namespace {

/** 16 tenants x 4 cores: a consolidation mix cycling the paper's
 *  workloads, with a spread of quota weights. */
std::vector<TenantConfig>
gridTenants()
{
    // Graph workloads share one heap across cores and cannot be
    // partitioned into tenants; the pool is SPEC-style + mixes.
    std::vector<std::string> pool;
    for (const std::string &n : WorkloadFactory::paperNames()) {
        if (!WorkloadFactory::isGraph(n))
            pool.push_back(n);
    }
    std::vector<TenantConfig> tenants;
    tenants.reserve(16);
    for (std::uint32_t t = 0; t < 16; ++t) {
        TenantConfig tc;
        tc.name = "t" + std::to_string(t);
        tc.workload = pool[t % pool.size()];
        tc.weight = 1.0 + static_cast<double>(t % 4); // 1..4
        tc.numCores = 4;
        tenants.push_back(tc);
    }
    return tenants;
}

std::vector<Experiment>
buildGrid(const SystemConfig &base)
{
    std::vector<Experiment> exps;

    struct SchemePoint
    {
        const char *label;
        SchemeKind kind;
    };
    const SchemePoint schemes[] = {{"Banshee", SchemeKind::Banshee},
                                   {"Alloy", SchemeKind::Alloy},
                                   {"Unison", SchemeKind::Unison},
                                   {"TDC", SchemeKind::Tdc}};
    const std::uint64_t capacities[] = {64ull << 20, 128ull << 20};

    for (const SchemePoint &s : schemes) {
        for (const std::uint64_t cap : capacities) {
            SystemConfig c = base;
            c.withScheme(s.kind);
            if (s.kind == SchemeKind::Alloy)
                c.withAlloyFillProb(1.0);
            c.mem.inPkgCapacity = cap;
            c.withTenants(gridTenants(), /*partition=*/false);
            exps.push_back(
                {std::string(s.label) + "/" +
                     std::to_string(cap >> 20) + "M/shared",
                 c});
        }
    }
    // Quota-partitioned points (the ring implies the Banshee scheme).
    for (const std::uint64_t cap : capacities) {
        SystemConfig c = base;
        c.withScheme(SchemeKind::Banshee);
        c.mem.inPkgCapacity = cap;
        // Enough ring slices that 16 weighted tenants each hold one.
        c.resize.hash.numSlices = 32;
        c.withTenants(gridTenants(), /*partition=*/true);
        exps.push_back(
            {"Banshee/" + std::to_string(cap >> 20) + "M/quota", c});
    }
    return exps;
}

/** Run the grid @p threads at a time; @p wallSeconds gets its
 *  host wall-clock time. */
std::vector<RunResult>
timedSweep(const std::vector<Experiment> &exps, unsigned threads,
           double &wallSeconds)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<RunResult> results = runExperiments(exps, threads);
    wallSeconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    return results;
}

} // namespace

int
main(int argc, char **argv)
{
    bool compareSerial = false;
    BenchOptions opt = parseArgs(argc, argv, "ext_scale",
                                 {{"--compare-serial", &compareSerial}});
    printBanner("Extension: sweep throughput at consolidation scale "
                "(64 cores, 16 tenants)",
                "Banshee (MICRO'17) evaluation grids; parallel sweep "
                "runner");

    opt.base.numCores = 64;
    // Keep one experiment's work at sweep-friendly size: the grid is
    // 10 systems of 64 cores each, so per-core budgets a fraction of
    // the default already total ~10x an ext_tenant run. --quick is a
    // smoke budget sized so a sanitizer build finishes in CI minutes.
    opt.base.warmupInstrPerCore = opt.quick ? 20'000 : 150'000;
    opt.base.measureInstrPerCore = opt.quick ? 40'000 : 300'000;
    opt.base.autoWarmup = false;
    opt.base.footprintScale = 1.0 / 4.0;

    const std::vector<Experiment> exps = buildGrid(opt.base);

    double wallSeconds = 0.0;
    std::vector<RunResult> results =
        timedSweep(exps, opt.threads, wallSeconds);

    std::printf("\nSimulated aggregate IPC (independent of "
                "--threads):\n");
    TablePrinter ipcTable({"experiment", "IPC", "missRate"}, 16);
    ipcTable.printHeader();
    for (std::size_t i = 0; i < exps.size(); ++i) {
        ipcTable.printRow({exps[i].label, fmt(results[i].ipc, 3),
                           fmt(results[i].missRate, 4)});
    }
    std::printf("\nsweep: %zu experiments, %.2f s wall\n", exps.size(),
                wallSeconds);

    if (compareSerial) {
        std::printf("\nRe-running the grid serially (--threads 1) for "
                    "the speedup ratio...\n");
        double serialSeconds = 0.0;
        std::vector<RunResult> serialResults =
            timedSweep(exps, 1, serialSeconds);
        for (std::size_t i = 0; i < results.size(); ++i) {
            sim_assert(serialResults[i].ipc == results[i].ipc &&
                           serialResults[i].cycles == results[i].cycles,
                       "experiment '%s' diverged across thread counts",
                       exps[i].label.c_str());
        }
        const double speedup =
            wallSeconds > 0.0 ? serialSeconds / wallSeconds : 0.0;
        std::printf("\nserial: %.2f s wall; parallel: %.2f s wall; "
                    "speedup %.2fx\n",
                    serialSeconds, wallSeconds, speedup);
    }

    maybeWriteJson(opt, "ext_scale", exps, results);
    return 0;
}
