#include "telemetry/telemetry.hh"

#include <cstdio>

#include "common/log.hh"
#include "telemetry/span_trace.hh"

namespace banshee {

Telemetry::Telemetry(EventQueue &eq, const TelemetryConfig &config)
    : eq_(eq), config_(config)
{
    sim_assert(config.enabled, "Telemetry built while disabled");
    sim_assert(config.epochCycles > 0, "telemetry epoch must be > 0 cycles");
}

Histogram &
Telemetry::histogram(const std::string &name)
{
    owned_.push_back(std::make_unique<Histogram>());
    hists_.emplace_back(name, owned_.back().get());
    return *owned_.back();
}

ChannelTelemetry &
Telemetry::channelTelemetry(const std::string &name)
{
    channels_.push_back(std::make_unique<ChannelTelemetry>());
    ChannelTelemetry &ct = *channels_.back();
    hists_.emplace_back(name + ".queueLat", &ct.queueLatency);
    hists_.emplace_back(name + ".readOcc", &ct.readOccupancy);
    hists_.emplace_back(name + ".writeOcc", &ct.writeOccupancy);
    hists_.emplace_back(name + ".qosDeferAge", &ct.qosDeferAge);
    return ct;
}

void
Telemetry::nameTenantQueueLatency(std::size_t bucket,
                                  const std::string &metricName)
{
    sim_assert(bucket < kTenantBuckets, "bad tenant bucket %zu", bucket);
    hists_.emplace_back(metricName, &tenantQlat_[bucket]);
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
    journal_ = journal;
    eq_.scheduleAfter(tickEvent_, config_.epochCycles);
    // Baseline sample at the measure boundary: epoch 0 carries the
    // post-reset cumulative state, so every later epoch (including the
    // first timed one) has a predecessor to delta against.
    sample();
}

void
Telemetry::finishEpochs()
{
    tickEvent_.cancel();
    // One closing sample so the last (partial) epoch's activity is
    // still visible in the timeline.
    sample();
}

std::vector<HistogramSummary>
Telemetry::summaries() const
{
    std::vector<HistogramSummary> out;
    out.reserve(hists_.size());
    for (const auto &[name, h] : hists_) {
        if (h->count() == 0)
            continue; // dormant hooks (e.g. unused tenant buckets)
        out.push_back(h->summary(name));
    }
    return out;
}

void
Telemetry::sample()
{
    if (!journal_) {
        // In-memory mode keeps the clock and reads every gauge too:
        // the energy gauge's reads are integration points of the
        // power model, so results must not depend on whether a trace
        // file is written.
        for (const auto &gauge : gauges_)
            gauge.second();
        return;
    }
    // Gauges print with %.6f: cumulative counts pass 10^6 within an
    // epoch or two and must stay exact for the per-epoch deltas.
    std::string gauges;
    for (const auto &[name, fn] : gauges_) {
        if (!gauges.empty())
            gauges += ", ";
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6f", fn());
        gauges += "\"" + jsonEscape(name) + "\": " + buf;
    }
    std::string args = "\"epoch\": " + std::to_string(nextEpoch_++) +
                       ", \"cycle\": " + std::to_string(eq_.now()) +
                       ", \"hists\": {";
    for (std::size_t i = 0; i < hists_.size(); ++i) {
        if (i > 0)
            args += ", ";
        const Histogram &h = *hists_[i].second;
        args += "\"" + jsonEscape(hists_[i].first) +
                "\": {\"count\": " + std::to_string(h.count()) +
                ", \"sum\": " + std::to_string(h.sum()) +
                ", \"max\": " + std::to_string(h.max()) + ", \"buckets\": [";
        const std::vector<std::uint64_t> buckets = h.bucketCounts();
        for (std::size_t b = 0; b < buckets.size(); ++b) {
            if (b > 0)
                args += ", ";
            args += std::to_string(buckets[b]);
        }
        args += "]}";
    }
    args += "}";
    journal_->epochSample(eq_.now(), gauges, args);
}

} // namespace banshee
