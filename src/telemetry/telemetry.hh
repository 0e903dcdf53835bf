/**
 * @file
 * The per-run telemetry facade: one MetricRegistry (epoch-sampled
 * gauges and histogram states) and the owned histograms hot paths
 * record into.
 *
 * A System builds one Telemetry instance when its TelemetryConfig is
 * enabled and wires the hooks (DRAM channels, migration engines);
 * everything stays null/dormant otherwise. When the run also has a
 * span trace, each epoch sample is written into that one trace file
 * as a "metrics" counter event plus an "epoch" instant, so gauges,
 * histogram states and the resize decisions share one timeline.
 * Without a trace, telemetry is in-memory only: its histograms feed
 * RunResult::histograms.
 */

#ifndef BANSHEE_TELEMETRY_TELEMETRY_HH
#define BANSHEE_TELEMETRY_TELEMETRY_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "telemetry/dram_hooks.hh"
#include "telemetry/histogram.hh"
#include "telemetry/metric_registry.hh"
#include "telemetry/telemetry_config.hh"

namespace banshee {

class PageJournal; // telemetry/span_trace.hh

class Telemetry
{
  public:
    Telemetry(EventQueue &eq, const TelemetryConfig &config);

    MetricRegistry &registry() { return registry_; }

    /** Create an owned histogram registered as @p name. */
    Histogram &histogram(const std::string &name);

    /** Create the telemetry block for one DRAM channel; its
     *  histograms are registered under "<name>.*". */
    ChannelTelemetry &channelTelemetry(const std::string &name);

    /** Device-level per-tenant sojourn array (tenantBucket index). */
    Histogram *tenantQueueLatency() { return tenantQlat_.data(); }

    /** Register tenant bucket @p bucket's sojourn histogram under a
     *  readable name ("tenant.<name>.queueLat"). */
    void nameTenantQueueLatency(std::size_t bucket,
                                const std::string &metricName);

    /** Warmup boundary: clear histograms so measured-phase
     *  distributions start clean. */
    void resetHistograms();

    /** Begin epoch sampling; each sample is also written to
     *  @p journal when one is given. */
    void startEpochs(PageJournal *journal);

    /** Final sample + stop the clock (end of the measured phase). */
    void finishEpochs();

    /** End-of-run digests of every registered histogram. */
    std::vector<HistogramSummary> summaries() const;

  private:
    /** Render @p s as the journal's "metrics" and "epoch" events. */
    void writeSample(PageJournal &journal,
                     const MetricRegistry::Sample &s) const;

    EventQueue &eq_;
    TelemetryConfig config_;
    MetricRegistry registry_;

    std::vector<std::unique_ptr<Histogram>> owned_;
    std::vector<std::unique_ptr<ChannelTelemetry>> channels_;
    std::array<Histogram, kTenantBuckets> tenantQlat_{};
};

} // namespace banshee

#endif // BANSHEE_TELEMETRY_TELEMETRY_HH
