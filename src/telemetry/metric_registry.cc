#include "telemetry/metric_registry.hh"

namespace banshee {

void
MetricRegistry::start(EventQueue &eq, Cycle epochCycles,
                      SampleFn onSample)
{
    sim_assert(epochCycles > 0, "telemetry epoch must be > 0 cycles");
    onSample_ = std::move(onSample);
    running_ = true;
    eq_ = &eq;
    epochCycles_ = epochCycles;
    eq.scheduleAfter(tickEvent_, epochCycles);
}

void
MetricRegistry::tick()
{
    if (!running_)
        return;
    sample(eq_->now());
    eq_->scheduleAfter(tickEvent_, epochCycles_);
}

MetricRegistry::Sample
MetricRegistry::sample(Cycle now)
{
    Sample s;
    s.cycle = now;
    s.epoch = nextEpoch_++;
    s.values.reserve(gauges_.size());
    for (const GaugeFn &g : gauges_)
        s.values.push_back(g());
    s.hists.reserve(hists_.size());
    for (const Histogram *h : hists_) {
        HistSnapshot snap;
        snap.count = h->count();
        snap.sum = h->sum();
        snap.max = h->max();
        snap.buckets = h->bucketCounts();
        s.hists.push_back(std::move(snap));
    }
    if (onSample_)
        onSample_(s);
    return s;
}

} // namespace banshee
