/**
 * @file
 * Figure 8: sensitivity to in-package DRAM latency (100 % / 66 % /
 * 50 % of off-package) and bandwidth (8x / 4x / 2x off-package,
 * i.e. 8/4/2 channels) for Banshee, Alloy, TDC and Unison, geomean
 * speedup over NoCache.
 *
 * Paper headline (Section 5.5.3): all schemes improve with more
 * bandwidth / less latency; bandwidth matters far more than latency;
 * Banshee's edge grows as bandwidth shrinks.
 *
 * By default this bench sweeps a representative six-workload subset
 * (the full 16-workload sweep is 384 simulations; use --workloads to
 * override).
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace banshee;
using namespace banshee::benchutil;

namespace {

const std::vector<std::pair<std::string, SchemeKind>> kSchemes = {
    {"Banshee", SchemeKind::Banshee},
    {"Alloy", SchemeKind::Alloy},
    {"TDC", SchemeKind::Tdc},
    {"Unison", SchemeKind::Unison},
};

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseArgs(argc, argv, "fig8_latency_bandwidth");
    if (!opt.workloadsExplicit) {
        opt.workloads = {"pagerank", "graph500", "mcf",
                         "lbm", "omnetpp", "libquantum"};
    }

    printBanner("Figure 8: DRAM cache latency and bandwidth sweeps "
                "(geomean speedup vs NoCache)",
                "Banshee (MICRO'17), Fig. 8");

    std::vector<Experiment> exps;
    // One NoCache baseline per workload (independent of cache params).
    for (const auto &w : opt.workloads) {
        SystemConfig c = opt.base;
        c.workload = w;
        c.withScheme(SchemeKind::NoCache);
        exps.push_back({w + "/NoCache", c});
    }

    const std::vector<double> latScales = {1.0, 0.66, 0.5};
    const std::vector<std::uint32_t> channels = {8, 4, 2};

    auto addPoint = [&](const std::string &tag, double latScale,
                        std::uint32_t chans) {
        for (const auto &w : opt.workloads) {
            for (const auto &[name, kind] : kSchemes) {
                SystemConfig c = opt.base;
                c.workload = w;
                c.withScheme(kind);
                c.withAlloyFillProb(0.1);
                c.mem.inPkgTiming.latencyScale = latScale;
                c.mem.numMcs = chans;
                exps.push_back({w + "/" + name + "@" + tag, c});
            }
        }
    };
    for (double s : latScales)
        addPoint("lat" + fmt(s), s, opt.base.mem.numMcs);
    for (std::uint32_t ch : channels)
        addPoint("bw" + std::to_string(ch), 1.0, ch);

    const auto results = runExperiments(exps, opt.threads);
    const ResultIndex index(exps, results);

    auto printSweep = [&](const std::string &title,
                          const std::vector<std::string> &tags,
                          const std::vector<std::string> &labels) {
        std::printf("\n(%s)\n", title.c_str());
        std::vector<std::string> headers = {"scheme"};
        for (const auto &l : labels)
            headers.push_back(l);
        TablePrinter table(headers, 12);
        table.printHeader();
        for (const auto &[name, kind] : kSchemes) {
            std::vector<std::string> row = {name};
            for (const auto &tag : tags) {
                std::vector<double> speedups;
                for (const auto &w : opt.workloads) {
                    const RunResult &r = index.at(w, name + "@" + tag);
                    const RunResult &b = index.at(w, "NoCache");
                    speedups.push_back(static_cast<double>(b.cycles) /
                                       r.cycles);
                }
                row.push_back(fmt(geomean(speedups)));
            }
            table.printRow(row);
        }
    };

    printSweep("b: DRAM cache latency, relative to off-package",
               {"lat" + fmt(1.0), "lat" + fmt(0.66), "lat" + fmt(0.5)},
               {"100%", "66%", "50%"});
    printSweep("c: DRAM cache bandwidth, relative to off-package",
               {"bw8", "bw4", "bw2"}, {"8X", "4X", "2X"});
    return 0;
}
