#include "sim/runner.hh"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/log.hh"

namespace banshee {

std::vector<RunResult>
runExperiments(const std::vector<Experiment> &exps, unsigned threads,
               bool showProgress)
{
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    threads = std::min<unsigned>(
        threads, std::max<std::size_t>(exps.size(), 1));

    std::vector<RunResult> results(exps.size());
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> finished{0};

    auto worker = [&] {
        for (std::size_t i = next++; i < exps.size(); i = next++) {
            // Traces never share a file: the label routes each
            // experiment to its own trace (directory paths) or a
            // "-<label>" suffixed file.
            SystemConfig config = exps[i].config;
            if (config.spans.enabled && config.spans.runLabel.empty())
                config.spans.runLabel = exps[i].label;
            results[i] = System(config).run();
            const std::size_t done = ++finished;
            if (showProgress) {
                std::fprintf(stderr, "\r[bench] %zu/%zu %-40s", done,
                             exps.size(), exps[i].label.c_str());
                std::fflush(stderr);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    if (showProgress)
        std::fprintf(stderr, "\n");
    return results;
}

std::vector<Experiment>
schemeSweep(const SystemConfig &base, const std::string &workload)
{
    std::vector<Experiment> exps;
    auto add = [&](const std::string &label, SchemeKind kind,
                   double alloyProb = 0.0) {
        SystemConfig c = base;
        c.workload = workload;
        c.withScheme(kind);
        if (kind == SchemeKind::Alloy)
            c.withAlloyFillProb(alloyProb);
        exps.push_back(Experiment{workload + "/" + label, c});
    };
    add("NoCache", SchemeKind::NoCache);
    add("Unison", SchemeKind::Unison);
    add("TDC", SchemeKind::Tdc);
    add("Alloy 1", SchemeKind::Alloy, 1.0);
    add("Alloy 0.1", SchemeKind::Alloy, 0.1);
    add("Banshee", SchemeKind::Banshee);
    add("CacheOnly", SchemeKind::CacheOnly);
    return exps;
}

std::vector<Experiment>
resizeSweep(const SystemConfig &base, const std::string &workload,
            std::uint64_t epoch, std::uint32_t targetSlices)
{
    SystemConfig none = base;
    none.workload = workload;
    none.withScheme(SchemeKind::Banshee);
    none.resize.enabled = false;
    none.resize.policy.schedule.clear();

    SystemConfig ch = none;
    ch.withResizeStep(epoch, targetSlices, ResizeStrategy::ConsistentHash);
    SystemConfig flush = none;
    flush.withResizeStep(epoch, targetSlices, ResizeStrategy::FlushAll);

    return {Experiment{workload + "/NoResize", none},
            Experiment{workload + "/CH-resize", ch},
            Experiment{workload + "/Flush-resize", flush}};
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values) {
        sim_assert(v >= 0.0, "geomean needs non-negative values");
        if (v == 0.0)
            return 0.0; // the limit of (prod)^(1/n) with a zero factor
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

} // namespace banshee
