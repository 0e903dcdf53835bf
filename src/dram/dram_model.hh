/**
 * @file
 * Event-driven DRAM device model.
 *
 * A DramModel owns one or more channels. Each channel has a read
 * queue, a write queue with drain hysteresis, a set of banks with
 * row-buffer state, and a shared DDR data bus. Scheduling is
 * FR-FCFS: among eligible requests the scheduler picks the one whose
 * data can be put on the bus earliest (row-buffer hits win), with
 * arrival order as the tie-break. Bank preparation (precharge /
 * activate) of later requests overlaps the data transfer of earlier
 * ones, so the model pipelines across banks like real devices. The
 * scheduler's knobs (window, drain watermarks, QoS age caps and
 * credits) live in one DramSchedConfig; see dram/sched_config.hh.
 *
 * A request's row and bank are decoded once, when it is queued, and
 * each channel precomputes its bank timings in core cycles, so
 * scoring a candidate costs no division. Queued requests live in one
 * slab per channel (see DramChannel's queue layout).
 *
 * Large transfers must be chopped by the caller (schemes move pages
 * as a train of chunk requests); a single request may move at most
 * kMaxRequestBytes so the bus is never monopolized.
 */

#ifndef BANSHEE_DRAM_DRAM_MODEL_HH
#define BANSHEE_DRAM_DRAM_MODEL_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram_timing.hh"
#include "dram/sched_config.hh"
#include "dram/traffic.hh"
#include "power/power_model.hh"
#include "power/power_params.hh"

namespace banshee {

struct ChannelTelemetry; // telemetry/dram_hooks.hh
class PageJournal;       // telemetry/span_trace.hh

/** Completion callback: invoked with the cycle the data finished. */
using DramDoneFn = std::function<void(Cycle)>;

/** Largest single DRAM transaction (see file comment). */
constexpr std::uint32_t kMaxRequestBytes = 512;

/** Sentinel: the request does not belong to a span-sampled page. */
constexpr PageNum kNoSpanPage = ~0ull;

struct DramRequest
{
    Addr addr = 0;              ///< device byte address (row/bank mapping)
    std::uint32_t bytes = 64;   ///< multiple of 32, <= kMaxRequestBytes
    std::uint32_t tagBytes = 0; ///< portion of @c bytes charged to Tag
    bool isWrite = false;
    TrafficCat cat = TrafficCat::Demand;
    TenantId tenant = kNoTenant; ///< tenant charged for traffic/energy
    /** Owning (sampled) page for span tracing; kNoSpanPage = untraced. */
    PageNum spanPage = kNoSpanPage;
    DramDoneFn done;            ///< may be empty (posted writes)
};

/** One DRAM channel: banks + data bus + queues + scheduler. */
class DramChannel
{
  public:
    /** @p name prefixes the channel's counters in the device's
     *  StatSet ("ch0.requests", "ch0.rowHits"). */
    DramChannel(EventQueue &eq, const DramTiming &timing, TrafficStats &traffic,
                DramPowerModel &power, StatSet &stats,
                const std::string &name);

    /** Enqueue a request; it becomes eligible immediately. */
    void push(DramRequest req);

    /** Data-bus busy cycles so far (core cycles), for utilization. */
    Cycle busBusyCycles() const { return busBusyCycles_; }

    /** Attach (or detach with nullptr) telemetry distributions; null
     *  keeps the scheduler free of telemetry work. */
    void setTelemetry(ChannelTelemetry *telem) { telem_ = telem; }

    /** Attach span tracing: requests tagged with a sampled page emit
     *  queue/service slices on channel track @p track. Null = off. */
    void
    setSpanTrace(PageJournal *spans, std::uint32_t track)
    {
        spans_ = spans;
        spanTrack_ = track;
    }

    /** Replace the scheduler config (see dram/sched_config.hh); the
     *  default-constructed config is the stock FR-FCFS scheduler. */
    void setSchedConfig(const DramSchedConfig &config);

    /** Per-tenant entitlement shares (fractions summing to <= 1),
     *  indexed by TenantId. Until set, credits never bind (every
     *  tenant is exempt, as is untagged traffic throughout). */
    void setQosShares(const std::array<double, kMaxTenants> &shares);

    void resetStats() { busBusyCycles_ = 0; }

  private:
    /** Slab index meaning "no node". */
    static constexpr std::uint32_t kNil = ~0u;

    /** A queued request: one slab node, linked into its queue. */
    struct Pending
    {
        DramRequest req;
        Cycle arrival = 0; ///< queues are FIFO in arrival order
        std::uint64_t row = 0; ///< decoded once, at push
        std::uint32_t bank = 0;
        std::uint32_t prev = kNil; ///< queue neighbours (slab indices)
        std::uint32_t next = kNil; ///< also links the free list
        /** QoS annotation for span tracing: how scheduling treated
         *  this request (0 none, kQosAged, kQosDeferred). */
        std::uint8_t qosMark = 0;
    };

    /** An intrusive FIFO list of slab nodes, oldest at the head. */
    struct Queue
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        std::uint32_t size = 0;
    };

    static constexpr std::uint8_t kQosAged = 1;
    static constexpr std::uint8_t kQosDeferred = 2;

    struct Bank
    {
        std::uint64_t openRow = ~0ull;
        Cycle readyCycle = 0;       ///< earliest next access start
        Cycle lastActStart = 0;     ///< for the tRAS constraint
    };

    /** Ensure a scheduler kick is pending at or before @p when. */
    void armKick(Cycle when);

    /** Scheduler: issue as many requests as the lookahead allows. */
    void kick();

    /**
     * Earliest cycle the data of @p p could appear on the bus if
     * issued now, considering only its bank (not the bus).
     */
    Cycle bankReadyCycle(const Pending &p) const;

    /** Issue slab node @p n (already unlinked from its queue): update
     *  bank/bus state, schedule completion, free the node. */
    void issue(std::uint32_t n);

    /**
     * The one selector: drain hysteresis picks a queue, an over-age
     * request pops first, then FR-FCFS over the window (preferring a
     * credit-eligible pick while credits bind). Unlinks the pick and
     * returns its slab node in @p out; returns false if both queues
     * are empty.
     */
    bool selectNext(std::uint32_t &out);

    /** Append slab node @p n at @p q's tail. */
    void link(Queue &q, std::uint32_t n);

    /** Remove slab node @p n from @p q, wherever it sits. */
    void unlink(Queue &q, std::uint32_t n);

    /** Lazy credit replenish on the epoch clock (no extra events, so
     *  enabling credits never perturbs event ordering). */
    void qosRefill(Cycle now);

    /** Charge an issued request to its tenant's credit + counters. */
    void qosCharge(const Pending &p);

    /** Is @p p issuable under credit arbitration right now?
     *  Untagged traffic (and any out-of-range id) is always exempt:
     *  it has no entitlement to charge. */
    bool
    qosEligible(const Pending &p) const
    {
        return p.req.tenant >= kMaxTenants || qosCredit_[p.req.tenant] > 0;
    }

    EventQueue &eq_;
    const DramTiming &timing_;
    TrafficStats &traffic_;
    DramPowerModel &power_;
    ChannelTelemetry *telem_ = nullptr;
    PageJournal *spans_ = nullptr;
    std::uint32_t spanTrack_ = 0;

    std::vector<Bank> banks_;

    /**
     * Queue layout: every queued request lives in one slab node. The
     * read and write queues are doubly linked FIFO lists threaded
     * through the slab in arrival order, and free nodes form a singly
     * linked free list. The FR-FCFS window scan walks @c window nodes
     * from a queue's head; the pick unlinks in O(1) and the others
     * keep their order. The slab only grows, so once it has reached
     * the deepest queue of the run, a push allocates nothing.
     */
    std::vector<Pending> slab_;
    std::uint32_t freeHead_ = kNil;
    Queue readQ_;
    Queue writeQ_;

    /** Bank timings in core cycles, precomputed from the (scaled)
     *  DRAM timing: tCAS (a row hit's data-ready offset), tRCD, tRP,
     *  tRAS, and the data-ready offsets of a closed bank
     *  (tRCD + tCAS) and a row conflict (tRP + tRCD + tCAS). */
    Cycle casCycles_;
    Cycle rcdCycles_;
    Cycle rpCycles_;
    Cycle rasCycles_;
    Cycle closedReady_;
    Cycle conflictReady_;

    Cycle busFree_ = 0;          ///< cycle the data bus becomes free
    Cycle busBusyCycles_ = 0;
    /** The one reusable scheduler-kick event for this channel;
     *  armKick() re-arms it to earlier cycles in place. */
    TickEvent kickEvent_;
    bool drainingWrites_ = false;
    /** Cycle of the last kick that issued nothing (~0 = none): the
     *  guard for collapsing repeated same-cycle no-op kicks. */
    Cycle lastNoopKickCycle_ = ~0ull;

    DramSchedConfig sched_;
    /** Credit state (used only while sched_.qos). */
    std::uint64_t qosBytesPerEpoch_ = 0; ///< resolved (0 -> bus width)
    Cycle qosEpochStart_ = 0;
    std::array<double, kMaxTenants> qosShare_{};
    std::array<std::int64_t, kMaxTenants> qosCredit_{};
    bool qosSharesSet_ = false;

    /** Bus reservation lookahead per kick, in DRAM cycles. */
    static constexpr std::uint64_t kReserveAheadDramCycles = 64;

    Counter &statReqs_;
    Counter &statRowHits_;
};

/**
 * A DRAM device: N identical channels. The caller picks the channel
 * (memory controllers own channels); helpers map pages to channels.
 */
class DramModel
{
  public:
    DramModel(EventQueue &eq, DramTiming timing, std::uint32_t numChannels,
              DramPowerParams powerParams = DramPowerParams::inPackage());

    /** Issue a request on an explicit channel. */
    void
    access(std::uint32_t channel, DramRequest req)
    {
        sim_assert(channel < channels_.size(), "bad channel %u", channel);
        sim_assert(req.bytes > 0 && req.bytes % 32 == 0 &&
                       req.bytes <= kMaxRequestBytes,
                   "bad DRAM request size %u", req.bytes);
        sim_assert(req.tagBytes <= req.bytes, "tag split exceeds request");
        if (req.tagBytes > 0)
            traffic_.add(TrafficCat::Tag, req.tagBytes, req.tenant);
        traffic_.add(req.cat, req.bytes - req.tagBytes, req.tenant);
        channels_[channel]->push(std::move(req));
    }

    /**
     * Move @p bytes starting at @p addr as a train of posted chunk
     * requests on @p channel (page fills, victim writebacks and
     * migrations: nothing waits on their completion).
     */
    void bulkAccess(std::uint32_t channel, Addr addr, std::uint64_t bytes,
                    bool isWrite, TrafficCat cat,
                    TenantId tenant = kNoTenant,
                    PageNum spanPage = kNoSpanPage);

    std::uint32_t numChannels() const { return channels_.size(); }

    /** Direct channel access (telemetry attach, tests). */
    DramChannel &channel(std::uint32_t i) { return *channels_[i]; }

    /** Apply a scheduler config to every channel. */
    void
    setSchedConfig(const DramSchedConfig &config)
    {
        for (auto &ch : channels_)
            ch->setSchedConfig(config);
    }

    /** Push per-tenant entitlement shares to every channel. */
    void
    setQosShares(const std::array<double, kMaxTenants> &shares)
    {
        for (auto &ch : channels_)
            ch->setQosShares(shares);
    }

    const DramTiming &timing() const { return timing_; }

    const TrafficStats &traffic() const { return traffic_; }

    /** State-based energy accounting for this device. */
    DramPowerModel &power() { return power_; }
    const DramPowerModel &power() const { return power_; }

    /** Aggregate data-bus utilization over @p elapsed core cycles. */
    double busUtilization(Cycle elapsed) const;

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

    void resetStats();

    /**
     * Unloaded access latency in core cycles (row hit), used by tests
     * and latency-model sanity checks.
     */
    Cycle
    zeroLoadLatency(std::uint32_t bytes = 64) const
    {
        return timing_.toCore(timing_.scaledCAS() +
                              bytes / timing_.busBytesPerCycle);
    }

  private:
    EventQueue &eq_;
    DramTiming timing_;
    TrafficStats traffic_;
    StatSet stats_;
    DramPowerModel power_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
};

} // namespace banshee

#endif // BANSHEE_DRAM_DRAM_MODEL_HH
