/**
 * @file
 * Configuration of the dynamic DRAM-cache resizing subsystem.
 *
 * The in-package cache of each memory controller is divided into
 * `numSlices` equal groups of sets ("slices"). Pages are placed onto
 * slices through a consistent-hash ring, so deactivating K of N
 * slices remaps (and therefore migrates) only ~K/N of the resident
 * pages; the naive alternative (FlushAll) drains the entire cache on
 * every size change, the way a mod-N indexed cache would have to.
 *
 * Resizes are decided by an epoch-driven policy fed from the scheme's
 * demand statistics, and executed by each memory controller's
 * ResizeDomain, whose background drain moves remapped pages through
 * the normal DRAM bandwidth model, rate-limited so demand traffic
 * keeps flowing.
 */

#ifndef BANSHEE_RESIZE_RESIZE_CONFIG_HH
#define BANSHEE_RESIZE_RESIZE_CONFIG_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "common/units.hh"

namespace banshee {

/** How a resize transition relocates resident pages. */
enum class ResizeStrategy : std::uint8_t
{
    ConsistentHash, ///< migrate only pages whose slice changed (~K/N)
    FlushAll        ///< naive baseline: drain every resident page
};

const char *resizeStrategyName(ResizeStrategy s);

/** Virtual-node ring geometry (see ConsistentHashMapper). */
struct ConsistentHashParams
{
    std::uint32_t numSlices = 8;
    /** Virtual nodes per slice; more = better balance, bigger ring. */
    std::uint32_t vnodesPerSlice = 64;
    std::uint64_t ringSeed = 0x5eedc0de;
};

/** Rate limiting of the background drain (see ResizeDomain). */
struct MigrationParams
{
    /** Pages drained per drain tick. */
    std::uint32_t pagesPerBatch = 8;
    /** Cycles between ticks — paces migration against demand. */
    Cycle batchInterval = nsToCycles(200.0);
    /** Back-off when the Tag Buffer cannot take more remaps. */
    Cycle retryInterval = usToCycles(1.0);
};

/** One entry of a scripted resize schedule. */
struct ResizeStep
{
    std::uint64_t epoch = 0;        ///< measured-phase epoch index
    std::uint32_t targetSlices = 0; ///< active slices to resize to
};

struct ResizePolicyConfig
{
    enum class Kind : std::uint8_t
    {
        Schedule, ///< scripted steps (benches, tests, external control)
        PowerCap, ///< watt budget
        Qos       ///< multi-tenant arbiter
    };

    Kind kind = Kind::Schedule;

    /** Epoch length; the policy is evaluated once per epoch. */
    Cycle epoch = usToCycles(20.0);

    /** Scripted resizes (Kind::Schedule). */
    std::vector<ResizeStep> schedule;

    // QoS lending knob (Kind::Qos; see resize_policy.hh).
    /** Ignore tenants with fewer demand accesses than this (noise). */
    std::uint64_t minEpochAccesses = 1000;

    // Power-cap knobs (Kind::PowerCap; also compose into Kind::Qos,
    // where the cap sheds from the tenant furthest over quota).
    /** Never shed below this many active slices. */
    std::uint32_t minSlices = 1;
    /** In-package device power budget (W); <= 0 disables the cap. */
    double powerCapWatts = 0.0;
    /** Grow hysteresis as a fraction of one slice's power share. */
    double powerGrowMargin = 1.0;
};

struct ResizeConfig
{
    bool enabled = false;
    ResizeStrategy strategy = ResizeStrategy::ConsistentHash;
    ConsistentHashParams hash;
    MigrationParams migration;
    ResizePolicyConfig policy;
    /**
     * Multi-tenant slice partitioning: when non-empty, the slices of
     * every domain are apportioned over these quota weights (tenant t
     * owns its share of the ring's points) and page placement becomes
     * tenant-aware. Filled by SystemConfig::withTenants.
     */
    std::vector<double> tenantWeights;
};

} // namespace banshee

#endif // BANSHEE_RESIZE_RESIZE_CONFIG_HH
