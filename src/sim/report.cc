#include "sim/report.hh"

#include <algorithm>
#include <cstdarg>

#include "common/log.hh"

namespace banshee {

void
TablePrinter::printHeader() const
{
    printRow(headers_);
    printRule();
}

void
TablePrinter::printRow(const std::vector<std::string> &cells) const
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        // First column is wider (workload names). A cell too wide for
        // its column still keeps one space before the next.
        const int w = std::max(i == 0 ? width_ + 4 : width_,
                               static_cast<int>(cells[i].size()) + 1);
        std::printf("%-*s", w, cells[i].c_str());
    }
    std::printf("\n");
}

void
TablePrinter::printRule() const
{
    int total = width_ + 4 + static_cast<int>(headers_.size() - 1) * width_;
    for (int i = 0; i < total; ++i)
        std::printf("-");
    std::printf("\n");
}

std::string
fmt(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

// jsonEscape comes from telemetry/trace_sink.hh (via system_config.hh).

namespace {

void
writeCatBytes(std::FILE *f, const char *key,
              const std::array<std::uint64_t, kNumTrafficCats> &bytes)
{
    std::fprintf(f, "      \"%s\": {", key);
    for (std::size_t c = 0; c < kNumTrafficCats; ++c) {
        std::fprintf(f, "%s\"%s\": %llu", c == 0 ? "" : ", ",
                     trafficCatName(static_cast<TrafficCat>(c)),
                     static_cast<unsigned long long>(bytes[c]));
    }
    std::fprintf(f, "},\n");
}

void
writeCatEnergy(std::FILE *f, const char *key,
               const std::array<double, kNumTrafficCats> &pJ)
{
    std::fprintf(f, "      \"%s\": {", key);
    for (std::size_t c = 0; c < kNumTrafficCats; ++c) {
        std::fprintf(f, "%s\"%s\": %.1f", c == 0 ? "" : ", ",
                     trafficCatName(static_cast<TrafficCat>(c)), pJ[c]);
    }
    std::fprintf(f, "},\n");
}

} // namespace

void
writeResultsJson(const std::string &path, const std::string &bench,
                 const std::vector<std::string> &labels,
                 const std::vector<RunResult> &results)
{
    sim_assert(labels.size() == results.size(),
               "json: %zu labels for %zu results", labels.size(),
               results.size());
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot open '%s' for writing", path.c_str());

    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", jsonEscape(bench).c_str());
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        std::fprintf(f, "    {\n");
        std::fprintf(f, "      \"label\": \"%s\",\n",
                     jsonEscape(labels[i]).c_str());
        std::fprintf(f, "      \"workload\": \"%s\",\n",
                     jsonEscape(r.workload).c_str());
        std::fprintf(f, "      \"scheme\": \"%s\",\n",
                     jsonEscape(r.scheme).c_str());
        std::fprintf(f, "      \"instructions\": %llu,\n",
                     static_cast<unsigned long long>(r.instructions));
        std::fprintf(f, "      \"cycles\": %llu,\n",
                     static_cast<unsigned long long>(r.cycles));
        std::fprintf(f, "      \"ipc\": %.6f,\n", r.ipc);
        std::fprintf(f, "      \"missRate\": %.6f,\n", r.missRate);
        std::fprintf(f, "      \"mpki\": %.4f,\n", r.mpki);
        writeCatBytes(f, "inPkgBytes", r.inPkgBytes);
        writeCatBytes(f, "offPkgBytes", r.offPkgBytes);
        writeCatEnergy(f, "inPkgDynPJ", r.inPkgDynPJ);
        writeCatEnergy(f, "offPkgDynPJ", r.offPkgDynPJ);
        std::fprintf(f, "      \"inPkgBackgroundPJ\": %.1f,\n",
                     r.inPkgBackgroundPJ);
        std::fprintf(f, "      \"inPkgRefreshPJ\": %.1f,\n",
                     r.inPkgRefreshPJ);
        std::fprintf(f, "      \"inPkgActiveStandbyPJ\": %.1f,\n",
                     r.inPkgActiveStandbyPJ);
        std::fprintf(f, "      \"offPkgBackgroundPJ\": %.1f,\n",
                     r.offPkgBackgroundPJ);
        std::fprintf(f, "      \"offPkgRefreshPJ\": %.1f,\n",
                     r.offPkgRefreshPJ);
        std::fprintf(f, "      \"offPkgActiveStandbyPJ\": %.1f,\n",
                     r.offPkgActiveStandbyPJ);
        std::fprintf(f, "      \"totalEnergyPJ\": %.1f,\n",
                     r.totalEnergyPJ());
        std::fprintf(f, "      \"energyPerInstrPJ\": %.4f,\n",
                     r.energyPerInstrPJ());
        std::fprintf(f, "      \"inPkgAvgPowerWatts\": %.6f,\n",
                     r.inPkgAvgPowerWatts);
        std::fprintf(f, "      \"offPkgAvgPowerWatts\": %.6f,\n",
                     r.offPkgAvgPowerWatts);
        std::fprintf(f, "      \"pagesMigrated\": %llu,\n",
                     static_cast<unsigned long long>(r.pagesMigrated));
        std::fprintf(f, "      \"finalActiveSlices\": %u,\n",
                     r.finalActiveSlices);
        std::fprintf(f, "      \"qosReassigns\": %llu,\n",
                     static_cast<unsigned long long>(r.qosReassigns));
        std::fprintf(f, "      \"tenants\": [");
        for (std::size_t t = 0; t < r.tenants.size(); ++t) {
            const TenantRunStats &ts = r.tenants[t];
            std::fprintf(
                f,
                "%s\n        {\"name\": \"%s\", \"weight\": %.4f, "
                "\"cores\": %u, \"instructions\": %llu, "
                "\"ipc\": %.6f, \"missRate\": %.6f, "
                "\"accesses\": %llu, \"misses\": %llu, "
                "\"inPkgBytes\": %llu, \"offPkgBytes\": %llu, "
                "\"inPkgDynPJ\": %.1f, \"offPkgDynPJ\": %.1f, "
                "\"slicesOwned\": %u",
                t == 0 ? "" : ",", jsonEscape(ts.name).c_str(), ts.weight,
                ts.cores, static_cast<unsigned long long>(ts.instructions),
                ts.ipc, ts.missRate,
                static_cast<unsigned long long>(ts.dramCacheAccesses),
                static_cast<unsigned long long>(ts.dramCacheMisses),
                static_cast<unsigned long long>(ts.inPkgBytes),
                static_cast<unsigned long long>(ts.offPkgBytes),
                ts.inPkgDynPJ, ts.offPkgDynPJ, ts.slicesOwned);
            // QoS scheduler counters appear only when it ran, so
            // scheduler-off output stays byte-identical to older
            // builds (the md5-guarded contract).
            if (r.qosSchedEnabled) {
                std::fprintf(
                    f, ", \"qosGrants\": %llu, \"qosDefers\": %llu",
                    static_cast<unsigned long long>(ts.qosGrants),
                    static_cast<unsigned long long>(ts.qosDefers));
            }
            std::fprintf(f, "}");
        }
        // The histograms key appears only when telemetry filled it, so
        // telemetry-off output stays byte-identical to older builds.
        std::fprintf(f, "%s]%s\n", r.tenants.empty() ? "" : "\n      ",
                     r.histograms.empty() ? "" : ",");
        if (!r.histograms.empty()) {
            std::fprintf(f, "      \"histograms\": [");
            for (std::size_t h = 0; h < r.histograms.size(); ++h) {
                const HistogramSummary &hs = r.histograms[h];
                // "saturated" marks top-bucket samples: tail
                // percentiles are then clamp values (the observed
                // max), i.e. lower bounds rather than estimates.
                std::fprintf(
                    f,
                    "%s\n        {\"name\": \"%s\", \"count\": %llu, "
                    "\"mean\": %.2f, \"p50\": %llu, \"p95\": %llu, "
                    "\"p99\": %llu, \"max\": %llu, \"saturated\": %s}",
                    h == 0 ? "" : ",", jsonEscape(hs.name).c_str(),
                    static_cast<unsigned long long>(hs.count), hs.mean,
                    static_cast<unsigned long long>(hs.p50),
                    static_cast<unsigned long long>(hs.p95),
                    static_cast<unsigned long long>(hs.p99),
                    static_cast<unsigned long long>(hs.max),
                    hs.saturated ? "true" : "false");
            }
            std::fprintf(f, "\n      ]\n");
        }
        std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    if (std::fclose(f) != 0)
        fatal("error writing '%s'", path.c_str());
}

void
printBanner(const std::string &title, const std::string &paperRef)
{
    std::printf("==============================================================="
                "=================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paperRef.c_str());
    std::printf("==============================================================="
                "=================\n");
}

} // namespace banshee
