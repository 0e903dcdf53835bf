/**
 * @file
 * Extension: DRAM energy — scheme comparison and power-cap resizing.
 *
 * Part 1 (the paper's energy argument, Section 5 made quantitative):
 * total DRAM energy per instruction for Unison, TDC, Alloy-1 and
 * Banshee. Banshee's bandwidth savings are energy savings: every tag
 * probe, speculative fill and footprint over-fetch the baselines
 * issue is burst + I/O energy Banshee never spends, and off-package
 * bytes cost ~4x the interface energy of in-package ones.
 *
 * Part 2 (power-cap resizing): the same Banshee system re-run under
 * the PowerCap resize policy with a watt budget below the uncapped
 * run's measured in-package power. The policy sheds slices until the
 * device fits the budget; deactivated slices stop refreshing and gate
 * their background power, so the capped run must report strictly
 * lower background+refresh energy at a bounded IPC cost.
 *
 * Defaults to four paper workloads that are robust at --quick scale
 * (omnetpp, mcf, milc, gcc); --workloads overrides.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace banshee;
using namespace banshee::benchutil;

int
main(int argc, char **argv)
{
    BenchOptions opt = parseArgs(argc, argv, "ext_energy");
    if (!opt.workloadsExplicit)
        opt.workloads = {"omnetpp", "mcf", "milc", "gcc"};
    printBanner("Extension: DRAM energy per scheme + power-cap-driven "
                "cache resizing",
                "Banshee (MICRO'17) energy claim; Chang et al. "
                "(resizing); Bakhshalipour et al. (energy)");

    const std::vector<std::string> schemes = {"Unison", "TDC", "Alloy 1",
                                              "Banshee"};
    std::vector<Experiment> exps;
    for (const auto &w : opt.workloads) {
        for (const auto &e : schemeSweep(opt.base, w)) {
            for (const auto &s : schemes) {
                if (e.label == w + "/" + s)
                    exps.push_back(e);
            }
        }
    }
    auto results = runExperiments(exps, opt.threads);
    const ResultIndex index(exps, results);

    // ------------------------------------------------ Part 1: energy
    TablePrinter table({"workload", "Unison", "TDC", "Alloy 1", "Banshee",
                        "Banshee bg+ref"},
                       15);
    std::printf("\nTotal DRAM energy per instruction (pJ/instr; "
                "in-package + off-package,\ndynamic + standby + "
                "background + refresh):\n");
    table.printHeader();

    int winsVsAlloy = 0;
    int winsVsUnison = 0;
    for (const auto &w : opt.workloads) {
        const RunResult &banshee = index.at(w, "Banshee");
        if (banshee.energyPerInstrPJ() <
            index.at(w, "Alloy 1").energyPerInstrPJ()) {
            ++winsVsAlloy;
        }
        if (banshee.energyPerInstrPJ() <
            index.at(w, "Unison").energyPerInstrPJ()) {
            ++winsVsUnison;
        }
        const double bgRef =
            banshee.instructions == 0
                ? 0.0
                : banshee.inPkgBgRefreshPJ() / banshee.instructions;
        table.printRow({w, fmt(index.at(w, "Unison").energyPerInstrPJ(), 1),
                        fmt(index.at(w, "TDC").energyPerInstrPJ(), 1),
                        fmt(index.at(w, "Alloy 1").energyPerInstrPJ(), 1),
                        fmt(banshee.energyPerInstrPJ(), 1), fmt(bgRef, 1)});
    }
    std::printf("\nBanshee uses less total DRAM energy/instr than "
                "Alloy-1 on %d/%zu and Unison on %d/%zu workloads\n",
                winsVsAlloy, opt.workloads.size(), winsVsUnison,
                opt.workloads.size());

    // -------------------------------------- Part 2: power-cap resize
    // Budget: 25% under the uncapped run's measured in-package power —
    // decisively below the epoch-to-epoch dynamic noise, so the
    // policy sheds slices to its floor (6 of 8) and holds, gating a
    // quarter of the background+refresh power at a bounded IPC cost.
    std::vector<Experiment> capExps;
    for (const auto &w : opt.workloads) {
        const RunResult &un = index.at(w, "Banshee");
        SystemConfig c = opt.base;
        c.workload = w;
        c.withScheme(SchemeKind::Banshee);
        c.withPowerCap(0.75 * un.inPkgAvgPowerWatts, /*minSlices=*/6);
        capExps.push_back(Experiment{w + "/PowerCap", c});
    }
    auto capResults = runExperiments(capExps, opt.threads);
    const ResultIndex capIndex(capExps, capResults);

    std::printf("\nPower-capped Banshee vs uncapped (cap = 75%% of the "
                "measured in-package power;\nshrink executed by the "
                "consistent-hash migration engine):\n");
    TablePrinter capTable({"workload", "bg+ref un", "bg+ref cap",
                           "saved", "slices", "dIPC"},
                          14);
    capTable.printHeader();

    int bgWins = 0;
    std::vector<double> ipcRatios;
    for (const auto &w : opt.workloads) {
        const RunResult &un = index.at(w, "Banshee");
        const RunResult &cap = capIndex.at(w, "PowerCap");
        if (cap.inPkgBgRefreshPJ() < un.inPkgBgRefreshPJ())
            ++bgWins;
        ipcRatios.push_back(cap.ipc / un.ipc);
        const double savedPct =
            un.inPkgBgRefreshPJ() == 0.0
                ? 0.0
                : 100.0 * (1.0 - cap.inPkgBgRefreshPJ() /
                                     un.inPkgBgRefreshPJ());
        capTable.printRow(
            {w, fmt(un.inPkgBgRefreshPJ() / 1e6, 2) + " uJ",
             fmt(cap.inPkgBgRefreshPJ() / 1e6, 2) + " uJ",
             fmt(savedPct, 1) + "%",
             std::to_string(cap.finalActiveSlices) + "/" +
                 std::to_string(opt.base.resize.hash.numSlices),
             fmt(100.0 * (cap.ipc / un.ipc - 1.0), 1) + "%"});
    }
    capTable.printRule();
    std::printf("\nPower cap lowers background+refresh energy on %d/%zu "
                "workloads; geomean IPC ratio %.3f\n",
                bgWins, opt.workloads.size(), geomean(ipcRatios));

    for (std::size_t i = 0; i < capExps.size(); ++i) {
        exps.push_back(std::move(capExps[i]));
        results.push_back(capResults[i]);
    }
    maybeWriteJson(opt, "ext_energy", exps, results);
    return 0;
}
