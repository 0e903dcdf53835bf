/**
 * @file
 * Figures 4, 5 and 6 from one sweep: every workload under NoCache,
 * Unison, TDC, Alloy 1, Alloy 0.1, Banshee and CacheOnly, shown as
 * speedup, in-package traffic and off-package traffic.
 *
 * Paper headlines:
 *  - Fig. 4 (Section 5.2): Banshee outperforms Unison by 68.9 %, TDC
 *    by 26.1 % and Alloy by 15.0 % on the geometric mean; Banshee and
 *    Alloy 0.1 lose on lbm; Banshee beats CacheOnly on some
 *    bandwidth-bound graph codes.
 *  - Fig. 5 (Section 5.3): Banshee moves 35.8 % less in-package
 *    traffic than the best baseline; its bars contain no MissData and
 *    almost no Tag component.
 *  - Fig. 6 (Section 5.3): Banshee's off-package traffic is 3.1 %
 *    lower than the best Alloy variant, 42.4 % lower than Unison and
 *    43.2 % lower than TDC.
 *
 * The graph-analytics study (paper Section 1) is
 * `--workloads pagerank,tri_count,graph500,sgd,lsh`; `--json` also
 * carries each run's DRAM-cache miss rate.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace banshee;
using namespace banshee::benchutil;

namespace {

/** The cache schemes in the paper's order; Figure 4 adds CacheOnly. */
const std::vector<std::string> kCacheSchemes = {"Unison", "TDC", "Alloy 1",
                                                "Alloy 0.1", "Banshee"};

void
printSpeedup(const std::vector<std::string> &workloads,
             const ResultIndex &index)
{
    printBanner("Figure 4: speedup normalized to NoCache (MPKI in "
                "parentheses)",
                "Banshee (MICRO'17), Fig. 4");

    std::vector<std::string> schemes = kCacheSchemes;
    schemes.push_back("CacheOnly");
    std::vector<std::string> headers = {"workload"};
    for (const auto &s : schemes)
        headers.push_back(s);
    TablePrinter table(headers, 16);
    table.printHeader();

    std::map<std::string, std::vector<double>> speedups;
    for (const auto &w : workloads) {
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
}

void
printInPkgTraffic(const std::vector<std::string> &workloads,
                  const ResultIndex &index)
{
    printBanner("Figure 5: in-package DRAM traffic breakdown "
                "(bytes/instruction)",
                "Banshee (MICRO'17), Fig. 5");

    TablePrinter table(
        {"workload", "scheme", "HitData", "MissData", "Tag",
         "Replacement", "Total"},
        12);
    table.printHeader();

    // Fig. 5 folds the frequency counters into Tag; Fig. 9 splits.
    auto tagBpi = [](const RunResult &r) {
        return r.inPkgBpi(TrafficCat::Tag) + r.inPkgBpi(TrafficCat::Counter);
    };

    std::map<std::string, std::vector<double>> totals;
    for (const auto &w : workloads) {
        for (const auto &s : kCacheSchemes) {
            const RunResult &r = index.at(w, s);
            table.printRow({w, s, fmt(r.inPkgBpi(TrafficCat::HitData)),
                            fmt(r.inPkgBpi(TrafficCat::MissData)),
                            fmt(tagBpi(r)),
                            fmt(r.inPkgBpi(TrafficCat::Replacement)),
                            fmt(r.inPkgTotalBpi())});
            totals[s].push_back(r.inPkgTotalBpi());
        }
        table.printRule();
    }

    std::printf("\nAverage total in-package traffic (bytes/instr):\n");
    double bestBaseline = 1e30;
    double bansheeAvg = 0.0;
    for (const auto &s : kCacheSchemes) {
        double sum = 0.0;
        for (double v : totals[s])
            sum += v;
        const double avg = sum / totals[s].size();
        std::printf("  %-10s %.2f\n", s.c_str(), avg);
        if (s == "Banshee")
            bansheeAvg = avg;
        else
            bestBaseline = std::min(bestBaseline, avg);
    }
    std::printf("\nBanshee vs best baseline: %+.1f%% traffic "
                "(paper: -35.8%%)\n",
                100.0 * (bansheeAvg / bestBaseline - 1.0));
}

void
printOffPkgTraffic(const std::vector<std::string> &workloads,
                   const ResultIndex &index)
{
    printBanner("Figure 6: off-package DRAM traffic (bytes/instruction)",
                "Banshee (MICRO'17), Fig. 6");

    std::vector<std::string> headers = {"workload"};
    for (const auto &s : kCacheSchemes)
        headers.push_back(s);
    TablePrinter table(headers, 12);
    table.printHeader();

    std::map<std::string, double> sums;
    for (const auto &w : workloads) {
        std::vector<std::string> row = {w};
        for (const auto &s : kCacheSchemes) {
            const double bpi = index.at(w, s).offPkgTotalBpi();
            row.push_back(fmt(bpi));
            sums[s] += bpi;
        }
        table.printRow(row);
    }
    table.printRule();
    std::vector<std::string> row = {"average"};
    for (const auto &s : kCacheSchemes)
        row.push_back(fmt(sums[s] / workloads.size()));
    table.printRow(row);

    const double banshee = sums["Banshee"];
    std::printf("\nBanshee vs Alloy 1 : %+.1f%%  (paper: -3.1%%)\n",
                100.0 * (banshee / sums["Alloy 1"] - 1.0));
    std::printf("Banshee vs Unison  : %+.1f%%  (paper: -42.4%%)\n",
                100.0 * (banshee / sums["Unison"] - 1.0));
    std::printf("Banshee vs TDC     : %+.1f%%  (paper: -43.2%%)\n",
                100.0 * (banshee / sums["TDC"] - 1.0));
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseArgs(argc, argv, "fig4_speedup");

    std::vector<Experiment> exps;
    for (const auto &w : opt.workloads) {
        for (auto &e : schemeSweep(opt.base, w))
            exps.push_back(std::move(e));
    }
    const auto results = runExperiments(exps, opt.threads);
    const ResultIndex index(exps, results);

    printSpeedup(opt.workloads, index);
    printInPkgTraffic(opt.workloads, index);
    printOffPkgTraffic(opt.workloads, index);
    maybeWriteJson(opt, "fig4_speedup", exps, results);
    return 0;
}
