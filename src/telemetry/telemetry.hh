/**
 * @file
 * The per-run telemetry facade: one MetricRegistry (epoch-sampled
 * time series), the owned histograms hot paths record
 * into, and the shared TraceSink the run's structured events go to.
 *
 * A System builds one Telemetry instance when its TelemetryConfig is
 * enabled and wires the hooks (DRAM channels, migration engines, the
 * resize controller); everything stays null/dormant otherwise. Epoch
 * samples are serialized into the trace as "epoch" events, so the
 * JSONL file carries the full timeline: metrics, histogram states,
 * and the decision events interleaved between them.
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
#include "telemetry/trace_sink.hh"

namespace banshee {

class Telemetry
{
  public:
    Telemetry(EventQueue &eq, const TelemetryConfig &config);

    const std::string &runLabel() const { return runLabel_; }

    MetricRegistry &registry() { return registry_; }

    /** The JSONL sink, or null when the config path is empty (the
     *  in-memory-only mode: histograms and summaries() still work). */
    TraceSink *sink() { return sink_.get(); }

    /** Create (or fetch) an owned histogram registered as @p name. */
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

    /** Emit one structured event stamped with run label + cycle. */
    void event(const char *type,
               std::initializer_list<TraceField> fields = {});

    /** Warmup boundary: clear histograms so measured-phase
     *  distributions start clean. */
    void resetHistograms();

    /** Begin epoch sampling; each sample is also traced. */
    void startEpochs();

    /** Final sample + stop the clock (end of the measured phase). */
    void finishEpochs();

    /** End-of-run digests of every registered histogram. */
    std::vector<HistogramSummary> summaries() const;

  private:
    std::string epochJson(const MetricRegistry::Sample &s) const;

    EventQueue &eq_;
    TelemetryConfig config_;
    std::string runLabel_;
    std::shared_ptr<TraceSink> sink_;
    MetricRegistry registry_;

    std::vector<std::unique_ptr<Histogram>> owned_;
    std::vector<std::string> ownedNames_;
    std::vector<std::unique_ptr<ChannelTelemetry>> channels_;
    std::array<Histogram, kTenantBuckets> tenantQlat_{};
};

} // namespace banshee

#endif // BANSHEE_TELEMETRY_TELEMETRY_HH
