/**
 * @file
 * Figure 4: speedup over NoCache (and MPKI) for every workload under
 * Unison, TDC, Alloy 1, Alloy 0.1, Banshee and CacheOnly.
 *
 * Paper headline (Section 5.2): Banshee outperforms Unison by 68.9 %,
 * TDC by 26.1 % and Alloy by 15.0 % on the geometric mean; Banshee
 * and Alloy 0.1 lose on lbm; Banshee beats CacheOnly on some
 * bandwidth-bound graph codes.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace banshee;
using namespace banshee::benchutil;

int
main(int argc, char **argv)
{
    BenchOptions opt = parseArgs(argc, argv, "fig4_speedup");
    printBanner("Figure 4: speedup normalized to NoCache (MPKI in "
                "parentheses)",
                "Banshee (MICRO'17), Fig. 4");

    std::vector<Experiment> exps;
    for (const auto &w : opt.workloads) {
        for (auto &e : schemeSweep(opt.base, w))
            exps.push_back(std::move(e));
    }
    const auto results = runExperiments(exps, opt.threads);
    const ResultIndex index(exps, results);

    const auto schemes = figureSchemes();
    std::vector<std::string> headers = {"workload"};
    for (const auto &s : schemes)
        headers.push_back(s);
    TablePrinter table(headers, 16);
    table.printHeader();

    std::map<std::string, std::vector<double>> speedups;
    for (const auto &w : opt.workloads) {
        const double baseCycles =
            static_cast<double>(index.at(w, "NoCache").cycles);
        std::vector<std::string> row = {w};
        for (const auto &s : schemes) {
            const RunResult &r = index.at(w, s);
            const double speedup = baseCycles / r.cycles;
            speedups[s].push_back(speedup);
            row.push_back(fmt(speedup) + " (" + fmt(r.mpki, 1) + ")");
        }
        table.printRow(row);
    }

    table.printRule();
    std::vector<std::string> row = {"geo-mean"};
    for (const auto &s : schemes)
        row.push_back(fmt(geomean(speedups[s])));
    table.printRow(row);

    // The paper's headline ratios.
    const double banshee = geomean(speedups["Banshee"]);
    std::printf("\nBanshee vs Unison   : %+.1f%%  (paper: +68.9%%)\n",
                100.0 * (banshee / geomean(speedups["Unison"]) - 1.0));
    std::printf("Banshee vs TDC      : %+.1f%%  (paper: +26.1%%)\n",
                100.0 * (banshee / geomean(speedups["TDC"]) - 1.0));
    const double alloyBest = std::max(geomean(speedups["Alloy 1"]),
                                      geomean(speedups["Alloy 0.1"]));
    std::printf("Banshee vs Alloy    : %+.1f%%  (paper: +15.0%% vs best "
                "Alloy)\n",
                100.0 * (banshee / alloyBest - 1.0));
    maybeWriteJson(opt, "fig4_speedup", exps, results);
    return 0;
}
