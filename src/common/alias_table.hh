/**
 * @file
 * Walker alias method for O(1) sampling from a discrete distribution.
 *
 * Used by the workload generators to draw pages from Zipf-like
 * popularity distributions without a per-draw binary search.
 */

#ifndef BANSHEE_COMMON_ALIAS_TABLE_HH
#define BANSHEE_COMMON_ALIAS_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace banshee {

/**
 * Immutable alias table built from a vector of non-negative weights.
 * sample() returns an index in [0, size()) with probability
 * proportional to its weight.
 */
class AliasTable
{
  public:
    AliasTable() = default;

    /** Build from weights; zero-weight entries are never returned. */
    explicit AliasTable(const std::vector<double> &weights);

    /** Number of outcomes (0 if default-constructed). */
    std::size_t size() const { return buckets_.size(); }

    bool empty() const { return buckets_.empty(); }

    /** Draw one index. Table must be non-empty. */
    std::size_t
    sample(Rng &rng) const
    {
        const std::size_t i = rng.nextBelow(buckets_.size());
        const Bucket &b = buckets_[i];
        return rng.nextDouble() < b.prob ? i : b.alias;
    }

  private:
    /** A bucket's two fields side by side: one draw reads one host
     *  line. */
    struct Bucket
    {
        double prob = 0.0;
        std::uint32_t alias = 0;
    };

    std::vector<Bucket> buckets_;
};

/**
 * Zipf(alpha) weights over n items: weight(i) = 1 / (i + 1)^alpha.
 * alpha = 0 gives a uniform distribution.
 */
std::vector<double> zipfWeights(std::size_t n, double alpha);

} // namespace banshee

#endif // BANSHEE_COMMON_ALIAS_TABLE_HH
