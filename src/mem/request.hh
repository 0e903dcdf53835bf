/**
 * @file
 * Types shared between the cache hierarchy and the memory system.
 */

#ifndef BANSHEE_MEM_REQUEST_HH
#define BANSHEE_MEM_REQUEST_HH

#include <cstdint>
#include <functional>

#include "common/types.hh"

namespace banshee {

/**
 * Page-mapping bits carried by every request through the memory
 * hierarchy (paper Section 3.2): whether the page is resident in the
 * DRAM cache and in which way.
 */
struct MappingInfo
{
    bool valid = false;   ///< mapping bits were attached at all
    bool cached = false;  ///< PTE "cached" bit
    std::uint8_t way = 0; ///< PTE "way" bits
};

/** Completion callback for an LLC miss, with the finishing cycle. */
using MissDoneFn = std::function<void(Cycle)>;

/**
 * Interface of the memory system as seen by the LLC: demand line
 * fetches (with completion callback) and posted dirty writebacks
 * (which, per the paper, carry no mapping information — that is what
 * makes the Tag Buffer's probe-avoidance matter).
 */
class MemBackend
{
  public:
    virtual ~MemBackend() = default;

    /** Fetch one 64 B line; @p done fires when data is available. */
    virtual void fetchLine(LineAddr line, const MappingInfo &mapping,
                           MissDoneFn done) = 0;

    /** Posted write of one dirty 64 B line evicted from the LLC. */
    virtual void writebackLine(LineAddr line) = 0;
};

} // namespace banshee

#endif // BANSHEE_MEM_REQUEST_HH
