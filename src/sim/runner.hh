/**
 * @file
 * In-process sweep runner: each experiment is an independent
 * (config, label) pair, and a worker pool claims experiments from
 * the list one at a time. Used by every bench binary to sweep
 * workloads x schemes in minutes instead of hours.
 *
 * Safe-parallelism contract: a `System` owns every piece of mutable
 * simulation state it touches — its EventQueue, all component RNGs
 * (seeded from its config), stats, telemetry buffers and its own
 * trace file (the runner routes each experiment to a private one by
 * label). The only cross-`System` mutable state is:
 *  - the process-wide `logVerbosity` knob, written during argument
 *    parsing before any worker thread starts;
 *  - the `warn_once` dedup flags (atomic);
 *  - the trace-replay buffer cache (`TracePattern::sharedFromFile`,
 *    mutex-guarded), which hands every replay of one file the same
 *    immutable records;
 *  - the Zipf alias-table cache (`ZipfPagePattern`'s constructor,
 *    mutex-guarded, weak entries), which hands every pattern over the
 *    same (pages, alpha) the same immutable table.
 * Sweeps therefore spread freely across threads with no
 * simulation-visible interaction between experiments.
 *
 * Host speed is measured from outside the library: see simbench/.
 */

#ifndef BANSHEE_SIM_RUNNER_HH
#define BANSHEE_SIM_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "sim/system_config.hh"

namespace banshee {

struct Experiment
{
    std::string label;
    SystemConfig config;
};

/**
 * Run all experiments, @p threads at a time (0 = hardware
 * concurrency). Results are returned in the input order, and each
 * is independent of the thread count.
 */
std::vector<RunResult> runExperiments(const std::vector<Experiment> &exps,
                                      unsigned threads = 0,
                                      bool showProgress = true);

/**
 * Build the standard scheme sweep of Figures 4-6 for one workload:
 * NoCache, Unison, TDC, Alloy 1, Alloy 0.1, Banshee, CacheOnly.
 */
std::vector<Experiment> schemeSweep(const SystemConfig &base,
                                    const std::string &workload);

/**
 * Build the resize comparison for one workload: Banshee with no
 * resize, with a consistent-hash resize, and with a naive flush
 * resize — all shrinking to @p targetSlices at measured-phase epoch
 * @p epoch. Resize knobs (slices, epoch length, migration rate) come
 * from @p base.resize.
 */
std::vector<Experiment> resizeSweep(const SystemConfig &base,
                                    const std::string &workload,
                                    std::uint64_t epoch,
                                    std::uint32_t targetSlices);

/**
 * Geometric mean helper (the paper's average bars). Defined as 0 for
 * an empty input and whenever any value is 0 (the mathematical
 * limit); values must not be negative.
 */
double geomean(const std::vector<double> &values);

} // namespace banshee

#endif // BANSHEE_SIM_RUNNER_HH
