/**
 * @file
 * Lightweight statistics registry.
 *
 * Components create named counters inside a StatSet, and the
 * simulator resets every StatSet at the warmup boundary. A counter
 * exists only when something reads it: a RunResult field, a bench, a
 * test, a telemetry gauge or simbench. Nothing prints a whole set, so
 * a counter nobody reads is dead hot-path work. Counter lookups
 * happen once at construction; updates are plain integer increments.
 */

#ifndef BANSHEE_COMMON_STATS_HH
#define BANSHEE_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace banshee {

/** A single 64-bit statistic. */
class Counter
{
  public:
    Counter &
    operator+=(std::uint64_t v)
    {
        value_ += v;
        return *this;
    }

    Counter &
    operator++()
    {
        ++value_;
        return *this;
    }

    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A collection of named counters. Iteration order is the names'
 * lexicographic order (std::map), so registering a whole set with
 * telemetry gives the same metric order on every run.
 */
class StatSet
{
  public:
    StatSet() = default;

    StatSet(const StatSet &) = delete;
    StatSet &operator=(const StatSet &) = delete;

    /** Get or create a counter. The reference stays valid forever. */
    Counter &
    counter(const std::string &name)
    {
        auto it = counters_.find(name);
        if (it == counters_.end())
            it = counters_.emplace(name, std::make_unique<Counter>()).first;
        return *it->second;
    }

    /** Read a counter's value; 0 if it does not exist. */
    std::uint64_t
    value(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second->value();
    }

    /** Zero every counter (warmup boundary). */
    void
    reset()
    {
        for (auto &kv : counters_)
            kv.second->reset();
    }

    const std::map<std::string, std::unique_ptr<Counter>> &
    all() const
    {
        return counters_;
    }

  private:
    std::map<std::string, std::unique_ptr<Counter>> counters_;
};

/**
 * Exponentially-weighted moving average over a windowed ratio, used
 * for the "recent miss rate" that drives Banshee's adaptive sampling
 * (paper Section 4.2.1) and BATMAN's traffic controller.
 */
class EwmaRatio
{
  public:
    /**
     * @param window number of events per update step
     * @param alpha  smoothing weight of the newest window
     * @param initial starting estimate (miss rate starts pessimistic)
     */
    explicit EwmaRatio(std::uint32_t window = 256, double alpha = 0.25,
                       double initial = 1.0)
        : window_(window), alpha_(alpha), value_(initial)
    {
    }

    /** Record one event; @p hit is the numerator condition. */
    void
    record(bool hit)
    {
        ++events_;
        if (hit)
            ++hits_;
        if (events_ >= window_) {
            const double ratio =
                static_cast<double>(hits_) / static_cast<double>(events_);
            value_ = alpha_ * ratio + (1.0 - alpha_) * value_;
            events_ = 0;
            hits_ = 0;
        }
    }

    double value() const { return value_; }

    void
    reset(double initial)
    {
        value_ = initial;
        events_ = 0;
        hits_ = 0;
    }

  private:
    std::uint32_t window_;
    double alpha_;
    double value_;
    std::uint32_t events_ = 0;
    std::uint32_t hits_ = 0;
};

} // namespace banshee

#endif // BANSHEE_COMMON_STATS_HH
