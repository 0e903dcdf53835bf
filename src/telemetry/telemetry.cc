#include "telemetry/telemetry.hh"

#include <cstdio>

#include "common/log.hh"
#include "telemetry/span_trace.hh"

namespace banshee {

Telemetry::Telemetry(EventQueue &eq, const TelemetryConfig &config)
    : eq_(eq), config_(config)
{
    sim_assert(config.enabled, "Telemetry built while disabled");
}

Histogram &
Telemetry::histogram(const std::string &name)
{
    owned_.push_back(std::make_unique<Histogram>());
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
Telemetry::startEpochs(PageJournal *journal)
{
    // In-memory mode keeps the clock too: the energy gauge's reads are
    // integration points of the power model, so results must not
    // depend on whether a trace file is written.
    MetricRegistry::SampleFn onSample;
    if (journal) {
        onSample = [this, journal](const MetricRegistry::Sample &s) {
            writeSample(*journal, s);
        };
    }
    registry_.start(eq_, config_.epochCycles, std::move(onSample));
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
    // still visible in the timeline (written via the onSample hook).
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

void
Telemetry::writeSample(PageJournal &journal,
                       const MetricRegistry::Sample &s) const
{
    // Gauges print with %.6f: cumulative counts pass 10^6 within an
    // epoch or two and must stay exact for the per-epoch deltas.
    std::string gauges;
    const auto &names = registry_.metricNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i > 0)
            gauges += ", ";
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6f", s.values[i]);
        gauges += "\"" + jsonEscape(names[i]) + "\": " + buf;
    }
    std::string args = "\"epoch\": " + std::to_string(s.epoch) +
                       ", \"cycle\": " + std::to_string(s.cycle) +
                       ", \"hists\": {";
    const auto &hnames = registry_.histNames();
    for (std::size_t i = 0; i < hnames.size(); ++i) {
        if (i > 0)
            args += ", ";
        const MetricRegistry::HistSnapshot &h = s.hists[i];
        args += "\"" + jsonEscape(hnames[i]) +
                "\": {\"count\": " + std::to_string(h.count) +
                ", \"sum\": " + std::to_string(h.sum) +
                ", \"max\": " + std::to_string(h.max) + ", \"buckets\": [";
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
            if (b > 0)
                args += ", ";
            args += std::to_string(h.buckets[b]);
        }
        args += "]}";
    }
    args += "}";
    journal.epochSample(s.cycle, gauges, args);
}

} // namespace banshee
