#include "common/alias_table.hh"

#include <cmath>

#include "common/log.hh"

namespace banshee {

AliasTable::AliasTable(const std::vector<double> &weights)
{
    const std::size_t n = weights.size();
    sim_assert(n > 0, "alias table needs at least one weight");

    double total = 0.0;
    for (double w : weights) {
        sim_assert(w >= 0.0, "alias table weights must be non-negative");
        total += w;
    }
    sim_assert(total > 0.0, "alias table needs positive total weight");

    buckets_.assign(n, Bucket{});

    // Scaled probabilities; partition into under- and over-full buckets.
    std::vector<double> scaled(n);
    std::vector<std::uint32_t> small, large;
    small.reserve(n);
    large.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        scaled[i] = weights[i] * n / total;
        if (scaled[i] < 1.0)
            small.push_back(static_cast<std::uint32_t>(i));
        else
            large.push_back(static_cast<std::uint32_t>(i));
    }

    while (!small.empty() && !large.empty()) {
        const std::uint32_t s = small.back();
        small.pop_back();
        const std::uint32_t l = large.back();
        large.pop_back();
        buckets_[s].prob = scaled[s];
        buckets_[s].alias = l;
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        if (scaled[l] < 1.0)
            small.push_back(l);
        else
            large.push_back(l);
    }
    // Remaining buckets are (numerically) exactly full.
    for (std::uint32_t l : large)
        buckets_[l].prob = 1.0;
    for (std::uint32_t s : small)
        buckets_[s].prob = 1.0;
}

std::vector<double>
zipfWeights(std::size_t n, double alpha)
{
    std::vector<double> w(n);
    for (std::size_t i = 0; i < n; ++i)
        w[i] = 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    return w;
}

} // namespace banshee
