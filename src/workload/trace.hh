/**
 * @file
 * Trace recording and replay.
 *
 * A small binary trace format lets downstream users drive the
 * simulator with their own address streams (e.g. captured with PIN or
 * DynamoRIO) instead of the synthetic generators. Records are
 * fixed-size and the replayer loops the trace when it runs out.
 *
 * Format: 8-byte magic "BSHTRC01", u64 record count, then per record
 * { u64 addr; u8 flags (bit0 = write, bit1 = depends-on-prev);
 *   u8 nonMemBefore; u16 pad }.
 */

#ifndef BANSHEE_WORKLOAD_TRACE_HH
#define BANSHEE_WORKLOAD_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/pattern.hh"

namespace banshee {

struct TraceRecord
{
    Addr addr = 0;
    std::uint8_t flags = 0;
    std::uint8_t nonMemBefore = 0;

    static constexpr std::uint8_t kWrite = 1;
    static constexpr std::uint8_t kDependsOnPrev = 2;
};

/** Write a trace file; returns false on I/O failure. */
bool writeTrace(const std::string &path,
                const std::vector<TraceRecord> &records);

/** Read a trace file; throws via fatal() on malformed input. */
std::vector<TraceRecord> readTrace(const std::string &path);

/**
 * Replays a trace cyclically as an AccessPattern.
 *
 * The records live behind a shared immutable buffer: every core (and
 * every experiment in a sweep) replaying the same file shares one
 * in-memory copy through sharedFromFile, each instance holding only
 * its own cursor. A 64-core run over a multi-GB trace costs one load
 * and one buffer, not 64. The buffer dies with its last pattern.
 */
class TracePattern : public AccessPattern
{
  public:
    using Buffer = std::shared_ptr<const std::vector<TraceRecord>>;

    explicit TracePattern(Buffer records);

    /**
     * Load @p path once per process and share the immutable record
     * buffer across all patterns replaying it (thread-safe — sweep
     * workers build Systems concurrently).
     */
    static std::unique_ptr<TracePattern>
    sharedFromFile(const std::string &path);

    MemOp next(Rng &rng) override;

    std::size_t size() const { return records_->size(); }

    /** The underlying shared buffer (tests assert sharing). */
    const Buffer &buffer() const { return records_; }

  private:
    Buffer records_;
    std::size_t pos_ = 0;
};

} // namespace banshee

#endif // BANSHEE_WORKLOAD_TRACE_HH
