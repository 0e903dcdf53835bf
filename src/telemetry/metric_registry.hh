/**
 * @file
 * Epoch-sampled metric time series, layered on the StatSet registry.
 *
 * Components already expose their statistics as StatSet counters and
 * accessor methods; end-of-run totals cannot show the
 * time-domain phenomena this repository now studies (resize drains,
 * power-cap hysteresis, per-tenant queueing under co-location). The
 * MetricRegistry closes that gap: gauges (arbitrary double-valued
 * callbacks), existing Counters / whole StatSets, and Histograms are
 * registered once at system build, then snapshotted on an epoch clock;
 * each sample goes to the onSample hook (Telemetry writes it into the
 * run's trace file) and is not kept. Values are cumulative-as-of-
 * sample; per-epoch rates are deltas between adjacent samples
 * (computed by consumers, e.g. scripts/spans_to_perfetto.py
 * --timeline).
 *
 * The registry is dormant until start(): nothing is scheduled on the
 * event queue and no callback runs, so a disabled-telemetry system
 * does no sampling work at all.
 */

#ifndef BANSHEE_TELEMETRY_METRIC_REGISTRY_HH
#define BANSHEE_TELEMETRY_METRIC_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "telemetry/histogram.hh"

namespace banshee {

class MetricRegistry
{
  public:
    using GaugeFn = std::function<double()>;

    /** Cumulative bucket state of one histogram at one sample. */
    struct HistSnapshot
    {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t max = 0;
        std::vector<std::uint64_t> buckets;
    };

    /** One epoch snapshot; values/hists parallel the name vectors. */
    struct Sample
    {
        Cycle cycle = 0;
        std::uint64_t epoch = 0;
        std::vector<double> values;
        std::vector<HistSnapshot> hists;
    };

    using SampleFn = std::function<void(const Sample &)>;

    /** Register a gauge: evaluated at every sample. */
    void
    addGauge(std::string name, GaugeFn fn)
    {
        metricNames_.push_back(std::move(name));
        gauges_.push_back(std::move(fn));
    }

    /** Register one existing Counter (reference outlives registry). */
    void
    addCounter(std::string name, const Counter &c)
    {
        addGauge(std::move(name), [&c] {
            return static_cast<double>(c.value());
        });
    }

    /** Register every counter of @p set under @p prefix. Counters
     *  created in the set after this call are not picked up. */
    void
    addStatSet(const StatSet &set, const std::string &prefix)
    {
        for (const auto &kv : set.all())
            addCounter(prefix + kv.first, *kv.second);
    }

    /** Register a histogram (reference outlives registry). */
    void
    addHistogram(std::string name, const Histogram &h)
    {
        histNames_.push_back(std::move(name));
        hists_.push_back(&h);
    }

    /**
     * Start the epoch clock: one sample every @p epochCycles on
     * @p eq, until stop(). @p onSample (optional) observes each
     * sample as it is taken, including those taken by sample().
     */
    void start(EventQueue &eq, Cycle epochCycles,
               SampleFn onSample = nullptr);

    /** Stop sampling; the pending clock event is cancelled. */
    void
    stop()
    {
        running_ = false;
        tickEvent_.cancel();
    }

    /** Take one sample now (the epoch clock calls this). */
    Sample sample(Cycle now);

    const std::vector<std::string> &metricNames() const
    {
        return metricNames_;
    }
    const std::vector<std::string> &histNames() const { return histNames_; }

    std::size_t numHistograms() const { return hists_.size(); }
    const Histogram &histogramAt(std::size_t i) const { return *hists_[i]; }
    const std::string &histNameAt(std::size_t i) const
    {
        return histNames_[i];
    }

  private:
    void tick();

    std::vector<std::string> metricNames_;
    std::vector<GaugeFn> gauges_;
    std::vector<std::string> histNames_;
    std::vector<const Histogram *> hists_;

    std::uint64_t nextEpoch_ = 0;
    bool running_ = false;
    EventQueue *eq_ = nullptr;   ///< set by start()
    Cycle epochCycles_ = 0;
    /** The sampling clock; self-rearms in tick() while running. */
    TickEvent tickEvent_{[this] { tick(); }};
    SampleFn onSample_;
};

} // namespace banshee

#endif // BANSHEE_TELEMETRY_METRIC_REGISTRY_HH
