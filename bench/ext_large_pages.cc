/**
 * @file
 * Section 5.4.1: large (2 MB) page support. Graph workloads with all
 * data on 2 MB pages (sampling coefficient 0.001, threshold scaled
 * per Section 4.2.2), perfect TLBs for both configurations, compared
 * against the 4 KB-page baseline Banshee.
 *
 * Paper headline: +3.6 % average from more accurate hot-page
 * detection at 2 MB granularity plus fewer counter and PTE updates.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace banshee;
using namespace banshee::benchutil;

int
main(int argc, char **argv)
{
    BenchOptions opt = parseArgs(argc, argv, "ext_large_pages");
    if (!opt.workloadsExplicit)
        opt.workloads = WorkloadFactory::graphNames();

    printBanner("Section 5.4.1: 2 MB large pages vs 4 KB pages "
                "(Banshee, graph suite, perfect TLBs)",
                "Banshee (MICRO'17), Section 5.4.1");

    std::vector<Experiment> exps;
    for (const auto &w : opt.workloads) {
        SystemConfig small = opt.base;
        small.workload = w;
        small.withScheme(SchemeKind::Banshee);
        small.tlb.missLatency = 0; // perfect TLB (both configs)
        // 2 MB promotions move 512x the data of a 4 KB one; in the
        // paper they amortize over 100 G instructions. Give both
        // configs a long warmup so steady state (not cold fills) is
        // measured.
        small.warmupInstrPerCore = 3 * opt.base.warmupInstrPerCore;
        exps.push_back({w + "/4K", small});

        SystemConfig large = small;
        large.banshee.pageBits = kLargePageBits;
        // The paper uses coefficient 0.001 over 100 G instructions;
        // at our ~10^4x shorter runs that rate never accumulates
        // counter evidence, so we rescale the sampling coefficient to
        // the run length and pin the threshold to the same effective
        // value the paper's formula yields (~16 counter points).
        large.banshee.samplingCoeff = 0.02;
        large.banshee.replaceThreshold = 24.0;
        exps.push_back({w + "/2M", large});
    }
    const auto results = runExperiments(exps, opt.threads);
    const ResultIndex index(exps, results);

    TablePrinter table({"workload", "4K cycles", "2M cycles", "2M gain",
                        "4K miss%", "2M miss%"},
                       13);
    table.printHeader();

    std::vector<double> gains;
    for (const auto &w : opt.workloads) {
        const RunResult &s = index.at(w, "4K");
        const RunResult &l = index.at(w, "2M");
        const double gain = static_cast<double>(s.cycles) / l.cycles;
        gains.push_back(gain);
        table.printRow({w, std::to_string(s.cycles),
                        std::to_string(l.cycles),
                        fmt(100.0 * (gain - 1.0), 1) + "%",
                        fmt(100.0 * s.missRate, 1),
                        fmt(100.0 * l.missRate, 1)});
    }
    table.printRule();
    std::printf("average 2M-page gain: %+.1f%%  (paper: +3.6%%)\n",
                100.0 * (geomean(gains) - 1.0));
    return 0;
}
