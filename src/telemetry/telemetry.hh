/**
 * @file
 * The per-run telemetry: epoch-sampled gauges, the owned histograms
 * hot paths record into, and the epoch clock that samples them.
 *
 * End-of-run totals cannot show the time-domain phenomena this
 * repository studies (resize drains, power-cap hysteresis, per-tenant
 * queueing under co-location). A System builds one Telemetry instance
 * when its TelemetryConfig is enabled, registers its gauges (arbitrary
 * double-valued callbacks) and histograms once, and wires the hooks
 * (DRAM channels, resize domains); everything stays null/dormant
 * otherwise, and nothing is scheduled before startEpochs(). When the
 * run also has a span trace, each epoch sample is written straight
 * into that one trace file as a "metrics" counter event plus an
 * "epoch" instant, so gauges, histogram states and the resize
 * decisions share one timeline; samples are not kept. Values are
 * cumulative-as-of-sample; per-epoch rates are deltas between
 * adjacent samples (computed by consumers, e.g.
 * scripts/spans_to_perfetto.py --timeline). Without a trace,
 * telemetry is in-memory only: its histograms feed
 * RunResult::histograms.
 */

#ifndef BANSHEE_TELEMETRY_TELEMETRY_HH
#define BANSHEE_TELEMETRY_TELEMETRY_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "telemetry/dram_hooks.hh"
#include "telemetry/histogram.hh"
#include "telemetry/telemetry_config.hh"

namespace banshee {

class PageJournal; // telemetry/span_trace.hh

class Telemetry
{
  public:
    using GaugeFn = std::function<double()>;

    Telemetry(EventQueue &eq, const TelemetryConfig &config);

    /** Register a gauge: evaluated at every sample. Registration
     *  order is the key order of each "metrics" trace event. */
    void
    addGauge(std::string name, GaugeFn fn)
    {
        gauges_.emplace_back(std::move(name), std::move(fn));
    }

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

    /** Begin epoch sampling: one sample now and one every epoch;
     *  each is also written to @p journal when one is given. */
    void startEpochs(PageJournal *journal);

    /** Final sample + stop the clock (end of the measured phase). */
    void finishEpochs();

    /** End-of-run digests of every registered histogram. */
    std::vector<HistogramSummary> summaries() const;

  private:
    /** Read every gauge now; with a journal, write the sample as its
     *  "metrics" and "epoch" events. */
    void sample();

    EventQueue &eq_;
    TelemetryConfig config_;
    PageJournal *journal_ = nullptr; ///< set by startEpochs()
    std::uint64_t nextEpoch_ = 0;
    /** The sampling clock; self-rearms every epoch until
     *  finishEpochs() cancels it. */
    TickEvent tickEvent_{[this] {
        sample();
        eq_.scheduleAfter(tickEvent_, config_.epochCycles);
    }};

    std::vector<std::pair<std::string, GaugeFn>> gauges_;
    std::vector<std::pair<std::string, const Histogram *>> hists_;
    std::vector<std::unique_ptr<Histogram>> owned_;
    std::vector<std::unique_ptr<ChannelTelemetry>> channels_;
    std::array<Histogram, kTenantBuckets> tenantQlat_{};
};

} // namespace banshee

#endif // BANSHEE_TELEMETRY_TELEMETRY_HH
