/**
 * @file
 * Shared plumbing for the bench binaries: run-length presets, CLI
 * parsing (--quick / --full / --workloads a,b,c / --json path /
 * --spans[=N] / --verbose), and result lookup.
 */

#ifndef BANSHEE_BENCH_BENCH_UTIL_HH
#define BANSHEE_BENCH_BENCH_UTIL_HH

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/system_config.hh"
#include "workload/workloads.hh"

namespace banshee::benchutil {

struct BenchOptions
{
    SystemConfig base = SystemConfig::scaledDefault();
    std::vector<std::string> workloads = WorkloadFactory::paperNames();
    /** True when --workloads was given (benches with their own
     *  defaults only override the list when the user did not). */
    bool workloadsExplicit = false;
    /** True when --quick was given (benches with their own run
     *  lengths pick the short one). */
    bool quick = false;
    unsigned threads = 0;
    /** Empty = no JSON output. */
    std::string jsonPath;
    /** Non-empty when --spans was given: the directory traces land
     *  in (one <label>.trace.json per experiment). */
    std::string spansDir;
};

/**
 * Parse common flags:
 *   --quick          quarter-length runs (CI smoke)
 *   --full           paper-sized system (1 GB cache, long runs)
 *   --workloads a,b  restrict the workload list (each name must exist)
 *   --threads N      worker threads
 *   --json path      also emit machine-readable results (BENCH_*.json)
 *   --spans[=N]      one trace per run, SPANS_<bench>/<label>.trace.json:
 *                    page/channel spans with sample shift N (default
 *                    6 = 1/64 of pages), resize decisions and the
 *                    epoch telemetry timeline (spans_to_perfetto.py)
 *   --verbose / -v   raise log verbosity (also: BANSHEE_LOG env var)
 *
 * Flag order does not matter: the preset (--full or the scaled
 * default) is picked first, then --quick and --spans apply on top of
 * it.
 *
 * @p benchName names the binary in usage/error messages (argv[0] when
 * empty) and the default --spans output directory.
 *
 * @p extraFlags lets a bench register additional boolean switches
 * (ext_tenant's --sched, ext_scale's --compare-serial): each pair maps
 * a flag spelling to the bool it sets. Extra flags appear in the usage
 * line.
 */
inline BenchOptions
parseArgs(int argc, char **argv, const std::string &benchName = "",
          std::initializer_list<std::pair<const char *, bool *>>
              extraFlags = {})
{
    BenchOptions opt;
    const std::string prog = benchName.empty() ? argv[0] : benchName;
    auto usage = [&prog, &extraFlags](const std::string &why) {
        std::fprintf(stderr, "%s: %s\n", prog.c_str(), why.c_str());
        std::string extra;
        for (const auto &fl : extraFlags)
            extra += std::string(" [") + fl.first + "]";
        std::fprintf(stderr,
                     "usage: %s [--quick] [--full] "
                     "[--workloads a,b,c] [--threads N] [--json path] "
                     "[--spans[=N]] [--verbose|-v]%s\n",
                     prog.c_str(), extra.c_str());
        std::exit(1);
    };
    auto matchExtra = [&extraFlags](const std::string &arg) {
        for (const auto &fl : extraFlags) {
            if (arg == fl.first) {
                *fl.second = true;
                return true;
            }
        }
        return false;
    };
    bool full = false;
    int spanShift = -1; // -1 = no --spans
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (matchExtra(arg)) {
            // handled
        } else if (arg == "--quick") {
            opt.quick = true;
        } else if (arg == "--full") {
            full = true;
        } else if (arg == "--workloads" && i + 1 < argc) {
            opt.workloads.clear();
            opt.workloadsExplicit = true;
            std::string list = argv[++i];
            std::size_t pos = 0;
            // Split on commas, skipping empty tokens so stray commas
            // ("a,", "a,,b") do not inject an unknown-workload fault.
            while (pos < list.size()) {
                const std::size_t comma = list.find(',', pos);
                const std::size_t end =
                    comma == std::string::npos ? list.size() : comma;
                if (end > pos) {
                    const std::string name = list.substr(pos, end - pos);
                    if (!WorkloadFactory::exists(name))
                        usage("unknown workload '" + name + "'");
                    opt.workloads.push_back(name);
                }
                pos = end + 1;
            }
            if (opt.workloads.empty())
                usage("--workloads needs at least one workload name");
        } else if (arg == "--threads" && i + 1 < argc) {
            // Strict parse: atoi would map garbage ("abc") to 0,
            // which silently means "use every core".
            const char *s = argv[++i];
            char *end = nullptr;
            const unsigned long v = std::strtoul(s, &end, 10);
            if (*s == '\0' || end == nullptr || *end != '\0' ||
                v > 4096) {
                usage(std::string("--threads needs a number in "
                                  "[0, 4096], got '") +
                      s + "'");
            }
            opt.threads = static_cast<unsigned>(v);
        } else if (arg == "--json" && i + 1 < argc) {
            opt.jsonPath = argv[++i];
        } else if (arg == "--spans" ||
                   arg.rfind("--spans=", 0) == 0) {
            // Same strict-parse discipline as --threads: reject
            // garbage shifts instead of silently sampling everything.
            spanShift = 6;
            if (arg.size() > 7) {
                const char *s = arg.c_str() + 8;
                char *end = nullptr;
                const unsigned long v = std::strtoul(s, &end, 10);
                if (*s == '\0' || end == nullptr || *end != '\0' ||
                    v > 24) {
                    usage(std::string("--spans needs a sample shift in "
                                      "[0, 24], got '") +
                          s + "'");
                }
                spanShift = static_cast<int>(v);
            }
        } else if (arg == "--verbose" || arg == "-v") {
            ++banshee::logVerbosity;
        } else {
            usage("unknown or incomplete argument '" + arg + "'");
        }
    }
    if (full)
        opt.base = SystemConfig::paperDefault();
    if (opt.quick) {
        opt.base.warmupInstrPerCore /= 4;
        opt.base.measureInstrPerCore /= 4;
    }
    if (spanShift >= 0) {
        // Telemetry rides along so every trace carries its epoch
        // timeline next to the spans and decisions.
        opt.spansDir = "SPANS_" + prog;
        opt.base.withTelemetry();
        opt.base.withSpanTrace(opt.spansDir + "/",
                               static_cast<std::uint32_t>(spanShift));
        std::printf("[spans] tracing 1/%u of pages into %s/ "
                    "(scripts/spans_to_perfetto.py)\n",
                    1u << opt.base.spans.sampleShift,
                    opt.spansDir.c_str());
    }
    return opt;
}

/** Emit BENCH_*.json when --json was given (shared by every bench). */
inline void
maybeWriteJson(const BenchOptions &opt, const std::string &bench,
               const std::vector<Experiment> &exps,
               const std::vector<RunResult> &results)
{
    if (opt.jsonPath.empty())
        return;
    std::vector<std::string> labels;
    labels.reserve(exps.size());
    for (const auto &e : exps)
        labels.push_back(e.label);
    writeResultsJson(opt.jsonPath, bench, labels, results);
    std::printf("\n[json] wrote %zu results to %s\n", results.size(),
                opt.jsonPath.c_str());
}

/** Index results of a sweep by (workload, scheme-label suffix). */
class ResultIndex
{
  public:
    ResultIndex(const std::vector<Experiment> &exps,
                const std::vector<RunResult> &results)
    {
        for (std::size_t i = 0; i < exps.size(); ++i)
            byLabel_[exps[i].label] = &results[i];
    }

    const RunResult &
    at(const std::string &workload, const std::string &scheme) const
    {
        return *byLabel_.at(workload + "/" + scheme);
    }

  private:
    std::map<std::string, const RunResult *> byLabel_;
};

} // namespace banshee::benchutil

#endif // BANSHEE_BENCH_BENCH_UTIL_HH
