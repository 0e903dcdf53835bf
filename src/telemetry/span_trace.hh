/**
 * @file
 * A run's one trace file: sampled lifecycle spans, run metadata,
 * resize decisions and epoch telemetry samples, exported as Chrome
 * trace-event JSON (loadable in Perfetto / chrome://tracing).
 *
 * Epoch telemetry (telemetry.hh) shows aggregates; the PageJournal
 * answers *why a specific page behaved that way*: a deterministic
 * hash of the page number (seeded by the run seed) selects 1/2^shift
 * of all pages, and every layer a sampled page crosses — demand
 * fetch, tag-buffer lookup, FBR admit/reject with counter values,
 * replacement fill, channel queueing vs bus service, migration
 * drain, resize remap, tenant quota reassignment, eviction + dirty
 * writeback — emits a span or instant on the page's own track.
 *
 * Sampling is a pure function of (page, seed, shift): no RNG state is
 * drawn, so tracing never perturbs the simulation, the sampled set is
 * identical across sweep thread counts, and spans-off runs are
 * byte-identical (every hook is a null-pointer check, the same
 * discipline the telemetry subsystem uses).
 *
 * Track layout (Chrome trace-event pid/tid conventions):
 *   pid 1 "pages"    — one tid per sampled page: "resident" B/E spans
 *                      bracket cache residency; instants mark access
 *                      outcomes, FBR decisions and writebacks; demand
 *                      fetches are async b/e pairs (they overlap).
 *   pid 2 "channels" — one tid per DRAM channel: async "queue" +
 *                      "service" slices per request touching a
 *                      sampled page (arrival->busStart->complete).
 *   pid 3 "control"  — the "run" track: run_info and tenant
 *                      metadata, measure_start, run_end and one
 *                      "epoch" instant per telemetry sample, whose
 *                      gauges ride a "metrics" counter (C) event;
 *                      resize decisions (instants) and resize/reassign
 *                      transitions (B/E), migration drain batches (X),
 *                      per-tenant quota instants.
 *
 * scripts/spans_to_perfetto.py validates the file and renders its
 * summary and epoch timeline.
 */

#ifndef BANSHEE_TELEMETRY_SPAN_TRACE_HH
#define BANSHEE_TELEMETRY_SPAN_TRACE_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/traffic.hh"
#include "telemetry/trace_sink.hh"

namespace banshee {

/** Span tracing knobs (SystemConfig::spans, off by default). */
struct SpanTraceConfig
{
    bool enabled = false;

    /** Output path: a directory (trailing '/' or an existing dir)
     *  writes one `<label>.trace.json` per run; a file path gets the
     *  run label spliced in before its extension when the label is
     *  set. Each System owns its file exclusively; none is shared. */
    std::string path;

    /** Sample 1/2^sampleShift of all pages (0 = every page). */
    std::uint32_t sampleShift = 6;

    /** Experiment label for per-run file routing (stamped by the
     *  sweep runner when left empty). */
    std::string runLabel;
};

/**
 * The per-System journal of sampled page lifecycles. Built once at
 * System assembly; every hook holds a raw pointer that is null when
 * tracing is off. One journal owns one output file (per-run routing
 * guarantees exclusivity), so emission needs no locking.
 */
class PageJournal
{
  public:
    /** The control "run" track: run metadata (run_info, tenant,
     *  measure_start, run_end) and epoch samples. */
    static constexpr std::uint32_t kRunTrack = 0;

    PageJournal(const SpanTraceConfig &config, std::uint32_t pageBits,
                std::uint64_t seed);
    ~PageJournal();

    PageJournal(const PageJournal &) = delete;
    PageJournal &operator=(const PageJournal &) = delete;

    /**
     * The sampling predicate: a splitmix64-style mix of
     * (page, seed) accepts when the low @p shift bits are zero.
     * Pure — identical across threads, runs and call sites.
     */
    static bool sampled(PageNum page, std::uint64_t seed,
                        std::uint32_t shift);

    bool
    sampledPage(PageNum page) const
    {
        return sampled(page, seed_, config_.sampleShift);
    }

    bool
    sampledAddr(Addr addr) const
    {
        return sampledPage(addr >> pageBits_);
    }

    /** Scheme-granularity page size used for sampling (12 or 21). */
    std::uint32_t pageBits() const { return pageBits_; }

    /**
     * One telemetry epoch sample: a "metrics" counter event on the
     * control process (Perfetto plots each gauge as a counter track)
     * and an "epoch" instant on the run track. @p gauges and
     * @p epochArgs are the rendered bodies of their args objects.
     */
    void epochSample(Cycle now, const std::string &gauges,
                     const std::string &epochArgs);

    // ----------------------------------------------------- page tracks

    /** Instant on @p page's lifecycle track (access outcome, FBR
     *  decision, writeback, blocked replacement...). */
    void pageInstant(PageNum page, const char *name, Cycle now,
                     std::initializer_list<TraceField> args = {});

    /** The page entered the DRAM cache (replacement admission). */
    void residentBegin(PageNum page, Cycle now,
                       std::initializer_list<TraceField> args);

    /** The page left the cache; @p cause is "replaced"/"migration". */
    void residentEnd(PageNum page, Cycle now, const char *cause,
                     bool dirty);

    /** One demand fetch of a line in @p page, issue to completion.
     *  Async (fetches to one page overlap across cores). */
    void fetchSpan(PageNum page, Cycle issued, Cycle complete);

    // -------------------------------------------------- channel tracks

    /** Register a channel track; returns its tid on the channel pid. */
    std::uint32_t addChannelTrack(const std::string &name);

    /** One DRAM request touching a sampled page: queue slice
     *  [arrival, busStart) then service slice [busStart, complete).
     *  @p qos optionally tags how the QoS scheduler treated the
     *  request ("aged"/"deferred"); null emits no tag. */
    void channelRequest(std::uint32_t track, PageNum page, Cycle arrival,
                        Cycle busStart, Cycle complete, bool isWrite,
                        TrafficCat cat, TenantId tenant,
                        const char *qos = nullptr);

    // -------------------------------------------------- control tracks

    /** Register a control-plane track; returns its tid. */
    std::uint32_t addControlTrack(const std::string &name);

    /** Open a span on a control track (strictly nested per track). */
    void controlBegin(std::uint32_t track, const char *name, Cycle now,
                      std::initializer_list<TraceField> args = {});

    /** Close the innermost open span on @p track. */
    void controlEnd(std::uint32_t track, Cycle now,
                    std::initializer_list<TraceField> args = {});

    /** Complete (X) event on a control track. */
    void controlComplete(std::uint32_t track, const char *name,
                         Cycle start, Cycle end,
                         std::initializer_list<TraceField> args = {});

    void controlInstant(std::uint32_t track, const char *name, Cycle now,
                        std::initializer_list<TraceField> args = {});

    /**
     * Close every still-open span (pages resident at run end, a
     * transition in flight) so each begin has an end, and flush the
     * JSON array footer. Idempotent; the destructor calls it with the
     * last cycle seen if the System did not.
     */
    void finish(Cycle now);

  private:
    struct PageState
    {
        std::uint64_t tid = 0;
        std::string asyncCat; ///< per-page category for fetch pairs
        bool resident = false;
    };

    PageState &ensurePage(PageNum page);

    /** `{"name": .., "ph": .., "pid": .., "tid": .., "ts": ..` */
    std::string head(const char *name, const char *ph, std::uint32_t pid,
                     std::uint64_t tid, Cycle ts) const;

    /** Append `, "args": {..}}` (or just `}`) and write the line. */
    void emit(std::string line, std::initializer_list<TraceField> args);

    void emitMeta(std::uint32_t pid, std::uint64_t tid,
                  const char *metaName, const std::string &value);

    SpanTraceConfig config_;
    std::uint32_t pageBits_;
    std::uint64_t seed_;
    ChromeTraceWriter writer_;

    std::map<PageNum, PageState> pages_;
    std::uint64_t nextPageTid_ = 0;
    std::uint64_t nextAsyncId_ = 0;
    std::vector<std::string> channelTracks_;
    std::vector<std::string> controlTracks_;
    /** Open control spans per track, for finish() and controlEnd(). */
    std::vector<std::vector<std::string>> controlOpen_;
    Cycle lastCycle_ = 0;
    bool finished_ = false;
};

} // namespace banshee

#endif // BANSHEE_TELEMETRY_SPAN_TRACE_HH
