/**
 * @file
 * Extension: dynamic DRAM-cache resizing — consistent-hash remapping
 * vs a naive flush-resize.
 *
 * Mid-run the cache shrinks from 8 to 6 active slices (-25% of its
 * capacity, e.g. a power cap or a co-tenant claiming its quota). The
 * consistent-hash transition migrates only the pages whose slice was
 * deactivated (~2/8 of residents); the flush baseline drains every
 * resident page, the way a mod-N indexed cache would have to. Both
 * run through the same rate-limited background migration engine, so
 * the comparison isolates the remapping policy.
 *
 * Reported per workload: off-package bytes per instruction during
 * the measured (transition-containing) phase, the migration volume,
 * and the IPC penalty relative to an unresized run.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace banshee;
using namespace banshee::benchutil;

namespace {

std::uint64_t
offPkgTotal(const RunResult &r)
{
    std::uint64_t t = 0;
    for (std::size_t cat = 0; cat < kNumTrafficCats; ++cat)
        t += r.offPkgBytes[cat];
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseArgs(argc, argv, "ext_resize");
    printBanner("Extension: dynamic cache resizing — consistent hash "
                "vs flush",
                "Chang et al. (consistent-hash DRAM cache resizing), "
                "on Banshee (MICRO'17)");

    // Resize knobs: 8 slices, shrink to 6 two epochs into the
    // measured phase, drained at a demand-friendly trickle.
    SystemConfig base = opt.base;
    base.resize.hash.numSlices = 8;
    base.resize.policy.epoch = usToCycles(20.0);
    base.resize.migration.pagesPerBatch = 8;
    base.resize.migration.batchInterval = nsToCycles(200.0);
    constexpr std::uint64_t kEpoch = 2;
    constexpr std::uint32_t kTarget = 6;

    std::vector<Experiment> exps;
    for (const auto &w : opt.workloads) {
        for (auto &e : resizeSweep(base, w, kEpoch, kTarget))
            exps.push_back(std::move(e));
    }
    const auto results = runExperiments(exps, opt.threads);
    const ResultIndex index(exps, results);

    TablePrinter table({"workload", "off-BPI none", "off-BPI CH",
                        "off-BPI flush", "mig CH", "mig flush",
                        "dIPC CH", "dIPC flush"},
                       14);
    table.printHeader();

    std::vector<double> chBpi, flushBpi;
    int chWins = 0;
    for (const auto &w : opt.workloads) {
        const RunResult &none = index.at(w, "NoResize");
        const RunResult &ch = index.at(w, "CH-resize");
        const RunResult &flush = index.at(w, "Flush-resize");
        chBpi.push_back(ch.offPkgTotalBpi());
        flushBpi.push_back(flush.offPkgTotalBpi());
        if (offPkgTotal(ch) < offPkgTotal(flush))
            ++chWins;
        table.printRow(
            {w, fmt(none.offPkgTotalBpi()), fmt(ch.offPkgTotalBpi()),
             fmt(flush.offPkgTotalBpi()),
             std::to_string(ch.pagesMigrated),
             std::to_string(flush.pagesMigrated),
             fmt(100.0 * (ch.ipc / none.ipc - 1.0), 1) + "%",
             fmt(100.0 * (flush.ipc / none.ipc - 1.0), 1) + "%"});
    }
    table.printRule();
    table.printRow({"geomean", "", fmt(geomean(chBpi)),
                    fmt(geomean(flushBpi)), "", "", "", ""});

    std::printf("\nConsistent-hash resize moves less off-package data "
                "than flush-resize on %d/%zu workloads\n",
                chWins, opt.workloads.size());
    std::printf("(off-BPI = off-package bytes/instruction over the "
                "measured phase containing the shrink;\n mig = pages "
                "drained by the migration engine; dIPC = IPC change "
                "vs the unresized run)\n");
    maybeWriteJson(opt, "ext_resize", exps, results);
    return 0;
}
