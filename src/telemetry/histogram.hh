/**
 * @file
 * Log2-bucketed histogram statistic.
 *
 * Counters (common/stats.hh) answer "how many / how much total";
 * latency questions need distributions: the QoS story established by
 * the tenant bench is a *tail* effect (one tenant's p95 channel wait
 * inflates while the mean barely moves). A Histogram buckets values
 * by floor(log2) so recording is O(1) with no allocation, the full
 * dynamic range of cycle counts fits in 48 buckets, and percentiles
 * are conservative (bucket upper bound, clamped by the true max).
 *
 * Recording is cheap but not free, so hot-path call sites hold a
 * Histogram pointer that stays null while telemetry is disabled.
 */

#ifndef BANSHEE_TELEMETRY_HISTOGRAM_HH
#define BANSHEE_TELEMETRY_HISTOGRAM_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace banshee {

/** End-of-run digest of one histogram (RunResult / JSON output). */
struct HistogramSummary
{
    std::string name;
    std::uint64_t count = 0;
    double mean = 0.0;
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t max = 0;
    /** Samples landed in the top bucket: percentiles that resolve
     *  there are the clamp value (observed max), not a bucket bound —
     *  the log2 range ran out, so treat tail quantiles as lower
     *  bounds rather than estimates. */
    bool saturated = false;
};

class Histogram
{
  public:
    /** Bucket 0 holds value 0; bucket i>=1 holds [2^(i-1), 2^i). */
    static constexpr std::uint32_t kBuckets = 48;

    static std::uint32_t
    bucketOf(std::uint64_t v)
    {
        if (v == 0)
            return 0;
        std::uint32_t b = 1;
        while (v >>= 1)
            ++b;
        return std::min(b, kBuckets - 1);
    }

    /** Smallest value a bucket can hold. */
    static std::uint64_t
    bucketLow(std::uint32_t b)
    {
        return b == 0 ? 0 : 1ull << (b - 1);
    }

    /** Largest value a bucket can hold (saturated for the last). */
    static std::uint64_t
    bucketHigh(std::uint32_t b)
    {
        if (b == 0)
            return 0;
        if (b >= kBuckets - 1)
            return ~0ull;
        return (1ull << b) - 1;
    }

    void
    record(std::uint64_t v)
    {
        ++buckets_[bucketOf(v)];
        ++count_;
        sum_ += v;
        max_ = std::max(max_, v);
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t max() const { return max_; }

    double
    mean() const
    {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sum_) /
                                 static_cast<double>(count_);
    }

    /**
     * Value at quantile @p q in [0, 1]: the upper bound of the bucket
     * holding the ceil(q * count)-th sample, clamped by the observed
     * max so percentiles never exceed any recorded value.
     */
    std::uint64_t
    percentile(double q) const
    {
        if (count_ == 0)
            return 0;
        q = std::min(std::max(q, 0.0), 1.0);
        const std::uint64_t target = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   q * static_cast<double>(count_) + 0.9999999));
        std::uint64_t cum = 0;
        for (std::uint32_t b = 0; b < kBuckets; ++b) {
            cum += buckets_[b];
            if (cum >= target)
                return std::min(bucketHigh(b), max_);
        }
        return max_;
    }

    void
    reset()
    {
        buckets_.fill(0);
        count_ = 0;
        sum_ = 0;
        max_ = 0;
    }

    std::uint64_t bucketCount(std::uint32_t b) const { return buckets_[b]; }

    /** Bucket counts trimmed after the last nonzero bucket. */
    std::vector<std::uint64_t>
    bucketCounts() const
    {
        std::uint32_t last = 0;
        for (std::uint32_t b = 0; b < kBuckets; ++b) {
            if (buckets_[b] != 0)
                last = b + 1;
        }
        return std::vector<std::uint64_t>(buckets_.begin(),
                                          buckets_.begin() + last);
    }

    HistogramSummary
    summary(std::string name) const
    {
        HistogramSummary s;
        s.name = std::move(name);
        s.count = count_;
        s.mean = mean();
        s.p50 = percentile(0.50);
        s.p95 = percentile(0.95);
        s.p99 = percentile(0.99);
        s.max = max_;
        s.saturated = buckets_[kBuckets - 1] != 0;
        return s;
    }

  private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace banshee

#endif // BANSHEE_TELEMETRY_HISTOGRAM_HH
