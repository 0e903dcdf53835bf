/**
 * @file
 * Approximate out-of-order core model (paper Table 2: 4-issue OoO).
 *
 * The model captures the two properties that matter for a DRAM
 * bandwidth study: limited memory-level parallelism (an MSHR budget
 * and a reorder-window constraint bound how many misses overlap) and
 * dependence chains (pointer-chasing loads serialize). Non-memory
 * instructions retire at the issue width. Cores run ahead of the
 * global event clock by at most a small skew bound, then yield, so
 * DRAM requests carry accurate issue timestamps.
 */

#ifndef BANSHEE_CPU_CORE_MODEL_HH
#define BANSHEE_CPU_CORE_MODEL_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "cache/hierarchy.hh"
#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "cpu/tlb.hh"
#include "workload/pattern.hh"

namespace banshee {

struct CoreParams
{
    std::uint32_t issueWidth = 4;
    std::uint32_t robSize = 192;
    std::uint32_t mshrs = 10;
    /** Hard cap on ops processed per activation. */
    std::uint32_t quantumOps = 4096;
    /** Per-core code footprint for the instruction stream. */
    std::uint64_t codeBytes = 16 * 1024;
};

/**
 * One core. It owns its pattern's op stream and its Rng, and draws
 * ops from the pattern up to 16 ahead of issue, in blocks. Issue
 * order is the pattern's order, across yields, stalls and phases, but
 * a pattern can be asked for up to 15 ops per core that are never
 * issued.
 */
class CoreModel
{
  public:
    CoreModel(CoreId id, const CoreParams &params, EventQueue &eq,
              CacheHierarchy &hierarchy, Tlb &tlb, AccessPattern &pattern,
              std::uint64_t rngSeed);

    /** Set the retirement target; the core parks when it reaches it. */
    void setInstrLimit(std::uint64_t limit) { instrLimit_ = limit; }

    /** Callback invoked (once) when the instruction limit is hit. */
    void onParked(std::function<void(CoreId)> fn) { onParked_ = std::move(fn); }

    /** Begin or resume execution (schedules the first activation). */
    void start();

    /**
     * Charge an external stall (interrupt handler, TLB shootdown).
     * Applied at the next instruction boundary.
     */
    void addStall(Cycle cycles) { pendingStall_ += cycles; }

    CoreId id() const { return id_; }
    std::uint64_t instrRetired() const { return instrRetired_; }
    Cycle localCycle() const { return curCycle_; }
    bool parked() const { return state_ == State::Parked; }

    /**
     * Base of core @p id's instruction-stream region. Exposed so the
     * system builder can register [base, base + codeBytes) with the
     * core's tenant — the single source of truth for the layout the
     * fetch path uses.
     */
    static Addr
    codeRegionBase(CoreId id, const CoreParams &params)
    {
        return (0xC0DEull << 40) +
               static_cast<std::uint64_t>(id) * params.codeBytes * 4;
    }

  private:
    enum class State : std::uint8_t
    {
        Idle,        ///< created, not started
        Running,     ///< activation scheduled or executing
        BlockedRob,  ///< window full, waiting on the oldest miss
        BlockedDep,  ///< dependent load waiting on the previous load
        BlockedMshr, ///< all MSHRs in flight
        Parked       ///< instruction limit reached
    };

    struct Outstanding
    {
        std::uint64_t seq = 0;
        Cycle doneCycle = 0;
        bool done = false;
    };

    /** Yield to the event queue when this far ahead of it. */
    static constexpr Cycle kSkewLimit = 128;
    /** Instructions per fetch group (one L1I probe per group). */
    static constexpr std::uint64_t kFetchGroup = 16;

    /** Main execution loop; runs until blocked, parked, or yielding. */
    void run();

    /** Schedule an activation at max(cycle, eq.now()). */
    void scheduleRun(Cycle at);

    /** Pop completed window entries whose time has passed. */
    void drainWindow();

    /** Memory-response handler for entries in the window. */
    void missDone(Outstanding *entry, Cycle when);

    /** Memory-response handler for posted stores / fetches. */
    void postedDone(Cycle when);

    void park();

    CoreId id_;
    CoreParams params_;
    EventQueue &eq_;
    CacheHierarchy &hierarchy_;
    Tlb &tlb_;
    AccessPattern &pattern_;
    Rng rng_;

    State state_ = State::Idle;
    /** The core's one activation event; scheduleRun() arms it. */
    TickEvent runEvent_;
    Cycle curCycle_ = 0;
    std::uint64_t instrRetired_ = 0;
    std::uint64_t instrLimit_ = 0;
    std::uint64_t instrSeq_ = 0;
    std::uint32_t issueCarry_ = 0;
    Cycle pendingStall_ = 0;

    std::deque<Outstanding> window_;
    std::uint32_t outstandingMisses_ = 0;
    Outstanding *lastLoad_ = nullptr;
    Cycle lastLoadDone_ = 0;

    /** Ops drawn from the pattern ahead of issue (see run()). */
    static constexpr std::size_t kOpBlock = 16;
    std::array<MemOp, kOpBlock> ops_;
    /** The next op to issue; kOpBlock when the block is used up. */
    std::size_t opPos_ = kOpBlock;

    std::uint64_t sinceFetch_ = 0;
    Addr codeBase_;
    Addr codePos_ = 0;

    std::function<void(CoreId)> onParked_;
};

} // namespace banshee

#endif // BANSHEE_CPU_CORE_MODEL_HH
