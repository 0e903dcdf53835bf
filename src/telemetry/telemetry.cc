#include "telemetry/telemetry.hh"

#include <cstdio>

#include "common/log.hh"

namespace banshee {

Telemetry::Telemetry(EventQueue &eq, const TelemetryConfig &config)
    : eq_(eq), config_(config),
      runLabel_(config.runLabel.empty() ? "run" : config.runLabel)
{
    sim_assert(config.enabled, "Telemetry built while disabled");
    // An empty path keeps the in-memory side (histograms,
    // summaries()) without a JSONL sink — benches that only want
    // end-of-run percentiles use this to skip the file.
    const std::string resolved = resolveTracePath(
        config.path, config.runLabel, ".jsonl", /*perRun=*/false);
    if (!resolved.empty())
        sink_ = TraceSink::shared(resolved);
}

Histogram &
Telemetry::histogram(const std::string &name)
{
    for (std::size_t i = 0; i < ownedNames_.size(); ++i) {
        if (ownedNames_[i] == name)
            return *owned_[i];
    }
    owned_.push_back(std::make_unique<Histogram>());
    ownedNames_.push_back(name);
    registry_.addHistogram(name, *owned_.back());
    return *owned_.back();
}

ChannelTelemetry &
Telemetry::channelTelemetry(const std::string &name)
{
    channels_.push_back(std::make_unique<ChannelTelemetry>());
    ChannelTelemetry &ct = *channels_.back();
    registry_.addHistogram(name + ".queueLat", ct.queueLatency);
    registry_.addHistogram(name + ".readOcc", ct.readOccupancy);
    registry_.addHistogram(name + ".writeOcc", ct.writeOccupancy);
    registry_.addHistogram(name + ".qosDeferAge", ct.qosDeferAge);
    return ct;
}

void
Telemetry::nameTenantQueueLatency(std::size_t bucket,
                                  const std::string &metricName)
{
    sim_assert(bucket < kTenantBuckets, "bad tenant bucket %zu", bucket);
    registry_.addHistogram(metricName, tenantQlat_[bucket]);
}

void
Telemetry::event(const char *type,
                 std::initializer_list<TraceField> fields)
{
    if (sink_)
        sink_->event(runLabel_, eq_.now(), type, fields);
}

void
Telemetry::resetHistograms()
{
    for (auto &h : owned_)
        h->reset();
    for (auto &ct : channels_) {
        ct->queueLatency.reset();
        ct->readOccupancy.reset();
        ct->writeOccupancy.reset();
        ct->qosDeferAge.reset();
    }
    for (Histogram &h : tenantQlat_)
        h.reset();
}

void
Telemetry::startEpochs()
{
    registry_.start(eq_, config_.epochCycles,
                    [this](const MetricRegistry::Sample &s) {
                        if (sink_)
                            sink_->writeLine(epochJson(s));
                    });
    // Baseline sample at the measure boundary: epoch 0 carries the
    // post-reset cumulative state, so every later epoch (including the
    // first timed one) has a predecessor to delta against.
    registry_.sample(eq_.now());
}

void
Telemetry::finishEpochs()
{
    registry_.stop();
    // One closing sample so the last (partial) epoch's activity is
    // still visible in the timeline (traced via the onSample hook).
    registry_.sample(eq_.now());
}

std::vector<HistogramSummary>
Telemetry::summaries() const
{
    std::vector<HistogramSummary> out;
    out.reserve(registry_.numHistograms());
    for (std::size_t i = 0; i < registry_.numHistograms(); ++i) {
        const Histogram &h = registry_.histogramAt(i);
        if (h.count() == 0)
            continue; // dormant hooks (e.g. unused tenant buckets)
        out.push_back(h.summary(registry_.histNameAt(i)));
    }
    return out;
}

std::string
Telemetry::epochJson(const MetricRegistry::Sample &s) const
{
    std::string json = "{\"run\": \"" + jsonEscape(runLabel_) +
                       "\", \"cycle\": " + std::to_string(s.cycle) +
                       ", \"event\": \"epoch\", \"epoch\": " +
                       std::to_string(s.epoch) + ", \"metrics\": {";
    const auto &names = registry_.metricNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i > 0)
            json += ", ";
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6f", s.values[i]);
        json += "\"" + jsonEscape(names[i]) + "\": " + buf;
    }
    json += "}, \"hists\": {";
    const auto &hnames = registry_.histNames();
    for (std::size_t i = 0; i < hnames.size(); ++i) {
        if (i > 0)
            json += ", ";
        const MetricRegistry::HistSnapshot &h = s.hists[i];
        json += "\"" + jsonEscape(hnames[i]) +
                "\": {\"count\": " + std::to_string(h.count) +
                ", \"sum\": " + std::to_string(h.sum) +
                ", \"max\": " + std::to_string(h.max) + ", \"buckets\": [";
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
            if (b > 0)
                json += ", ";
            json += std::to_string(h.buckets[b]);
        }
        json += "]}";
    }
    json += "}}";
    return json;
}

} // namespace banshee
