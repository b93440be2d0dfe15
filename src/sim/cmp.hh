/**
 * @file
 * The eight-core CMP system: cores + private hierarchies + crossbar +
 * SLLC + DRAM, with warmup/measurement bookkeeping.
 *
 * The run loop is timestamp-ordered: the core with the earliest ready
 * time processes its next reference atomically (private lookups, SLLC
 * transaction, fills, eviction notifications), charging latency and
 * resource occupancy as it goes.  Identical seeds and streams make runs
 * bit-reproducible across SLLC organizations.
 */

#ifndef RC_SIM_CMP_HH
#define RC_SIM_CMP_HH

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "cache/geometry.hh"
#include "cache/llc_iface.hh"
#include "cache/prefetcher.hh"
#include "mem/memctrl.hh"
#include "sim/core.hh"
#include "sim/crossbar.hh"
#include "sim/ready_tree.hh"
#include "sim/system_config.hh"
#include "sim/trace.hh"

namespace rc
{

class Serializer;
class Deserializer;
class FanoutFeed;
class ReplayStream;

/** Per-core/per-level miss rates in misses per kilo-instruction. */
struct MpkiTriple
{
    double l1 = 0.0;   //!< L1 I+D
    double l2 = 0.0;
    double llc = 0.0;  //!< requests the SLLC sent to memory
};

/** The complete simulated system. */
class Cmp : public RecallHandler
{
  public:
    /**
     * @param cfg system description (choose the SLLC via cfg.llcKind).
     * @param streams one reference stream per core (ownership taken).
     */
    Cmp(const SystemConfig &cfg,
        std::vector<std::unique_ptr<RefStream>> streams);

    ~Cmp() override;

    /** Advance simulated time by @p cycles. */
    void run(Cycle cycles);

    /**
     * Advance to absolute cycle @p end without necessarily committing
     * the horizon: run(c) is runSlice(now() + c, true).  FanoutCmp
     * interleaves its members in bounded quanta and commits only the
     * final slice of each run() call, so mid-run hooks observe the same
     * entry-horizon value they would in an unsliced run.
     */
    void runSlice(Cycle end, bool commit);

    /**
     * Fan-out client mode: references come as StepRecords from @p feed
     * (the cores' streams must be the feed's ReplayStreams, matched by
     * core id).  Recorded steps replay into the private hierarchies
     * while the sets they touch are bit-identical to the feed's
     * recording hierarchies; SLLC recalls/downgrades mark sets diverged
     * and those references fall back to the ordinary classify path.
     * Call once, immediately after construction.
     */
    void attachFeed(FanoutFeed *feed);

    /** Snapshot all counters; subsequent measured*() report deltas. */
    void beginMeasurement();

    /** Current simulated horizon. */
    Cycle now() const { return horizon; }

    /** Cycles simulated since beginMeasurement(). */
    Cycle measuredCycles() const { return horizon - snapCycle; }

    /** Instructions retired by @p core since beginMeasurement(). */
    std::uint64_t measuredInstructions(CoreId core) const;

    /** Per-core IPC over the measurement window. */
    double ipc(CoreId core) const;

    /** Sum of per-core IPCs (system throughput). */
    double aggregateIpc() const;

    /** Per-core L1/L2/LLC MPKI over the measurement window (Table 5). */
    MpkiTriple measuredMpki(CoreId core) const;

    /** The SLLC. */
    Sllc &llc() { return *llcPtr; }

    /** The SLLC, const. */
    const Sllc &llc() const { return *llcPtr; }

    /** The memory controller. */
    MemCtrl &memory() { return mem; }

    /** The memory controller, const (telemetry sampling). */
    const MemCtrl &memory() const { return mem; }

    /** Core @p i. */
    Core &core(CoreId i) { return *cores[i]; }

    /** Core @p i, const (integrity walks). */
    const Core &core(CoreId i) const { return *cores[i]; }

    /** Number of cores. */
    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores.size());
    }

    /** Crossbar (MSHR stats). */
    const Crossbar &crossbar() const { return xbar; }

    /** Per-core prefetcher (nullptr when disabled). */
    const StridePrefetcher *prefetcher(CoreId i) const
    {
        return i < prefetchers.size() ? prefetchers[i].get() : nullptr;
    }

    /** Prefetch requests actually issued to the SLLC. */
    Counter prefetchesIssued() const { return prefetchIssued; }

    /**
     * Install a periodic consistency hook: after every @p every_n_refs
     * completed references the hook runs with (system, current cycle).
     * References are atomic transactions, so the hook always observes
     * the system at a quiescent point; it may throw SimError to abort
     * the run recoverably (the bench harness quarantines it).  Pass 0
     * to disable.
     */
    void setCheckHook(std::uint64_t every_n_refs,
                      std::function<void(const Cmp &, Cycle)> hook);

    /** References completed since construction (check-hook cadence). */
    std::uint64_t referencesProcessed() const { return refsProcessed; }

    /** Fan-out references replayed from records (diagnostics). */
    std::uint64_t feedReplays() const { return feedReplayed; }

    /** Fan-out references that fell back to real classify. */
    std::uint64_t feedFallbacks() const { return feedFellBack; }

    /**
     * Install a periodic checkpoint hook, symmetric to setCheckHook():
     * runs with (system, current cycle) after every @p every_n_refs
     * completed references, always at a quiescent point.  Pass 0 to
     * disable.
     */
    void setSnapshotHook(std::uint64_t every_n_refs,
                         std::function<void(const Cmp &, Cycle)> hook);

    /**
     * Install a cycle-cadence sampling hook: the hook runs with
     * (system, epoch boundary cycle) once per @p every_cycles of
     * simulated time, at the quiescent point before the first reference
     * at-or-after each boundary (the telemetry epoch sampler snapshots
     * stat deltas here).  Unlike the check/snapshot hooks the cadence
     * is cycles, not references, so epochs are comparable across SLLC
     * organizations with different miss rates.  Pass 0 to disable.
     *
     * The next boundary survives checkpoint/restore: installing a hook
     * after restore() resumes the restored cadence instead of
     * restarting it.
     */
    void setSampleHook(Cycle every_cycles,
                       std::function<void(const Cmp &, Cycle)> hook);

    /**
     * Watchdog heartbeat: when set, the run loop stores the completed
     * reference count into @p counter (relaxed) after every reference,
     * so a monitor thread can observe forward progress.
     */
    void setProgressCounter(std::atomic<std::uint64_t> *counter);

    /**
     * Cooperative abort: when @p flag becomes true the run loop calls
     * @p on_abort (diagnostic state dump) and throws SimError(Hang),
     * which the bench harness routes into its quarantine path.
     */
    void setAbortFlag(const std::atomic<bool> *flag,
                      std::function<void(const Cmp &)> on_abort = {});

    /** Cycle at which the current measurement window opened. */
    Cycle measurementStart() const { return snapCycle; }

    /**
     * Checkpoint the complete mutable simulation state (cores, private
     * hierarchies, SLLC, directory, MSHRs, DRAM, crossbar, streams,
     * stats, measurement snapshots).  Must be called at a quiescent
     * point (between run() calls or from a check/snapshot hook).
     */
    void save(Serializer &s) const;

    /**
     * Restore a save()'d image into a Cmp constructed from the SAME
     * SystemConfig and stream set; construction-derived state is
     * validated, not restored.  Throws SimError(Snapshot) on any
     * mismatch or corruption.  Callers should run the IntegrityChecker
     * immediately afterwards.
     */
    void restore(Deserializer &d);

    /**
     * Latest per-core ready time: every legitimate MSHR entry completes
     * by then, so later completion times are leaks at quiesce.
     */
    Cycle maxCoreReadyAt() const;

    // RecallHandler interface (called by the SLLC).
    bool recall(Addr line_addr, std::uint32_t core_mask) override;
    bool downgrade(Addr line_addr, std::uint32_t core_mask) override;

  private:
    void stepCore(Core &core);
    void stepCoreFanout(Core &core);
    void issuePrefetches(Core &core, Addr demand_line, Cycle when);

    // Fan-out divergence tracking (client mode only).
    bool feedSetsClean(CoreId c, Addr line, bool is_instr) const;
    void feedMarkLine(CoreId c, Addr line);
    void feedMarkL1(CoreId c, Addr line);

    // Express-lane fan-out replay (hook-free fast path only): jump a
    // never-diverged core straight from one LLC-bound record to the
    // next using the feed's prefix sums, leaving its private state
    // stale in between and materializing it only when something must
    // observe it (a recall/downgrade, or the end of a run() call).
    void completeFanoutLlc(Core &core, const StepRecord &rec,
                           const PrivateMissAction &act, bool replayed,
                           Cycle returned);
    void refreshExpressEvent(std::uint32_t c, Cycle end);
    void expressEvent(std::uint32_t c, Cycle end);
    void materializeExpress(CoreId c, bool self_step);
    void finalizeExpress(std::uint32_t c, Cycle end);

    SystemConfig cfg;
    std::vector<std::unique_ptr<RefStream>> ownedStreams;
    MemCtrl mem;
    Crossbar xbar;
    std::unique_ptr<Sllc> llcPtr;
    std::vector<std::unique_ptr<Core>> cores;
    ReadyTree sched; //!< per-core (ready, core) keys; runSlice() only
    std::vector<std::unique_ptr<StridePrefetcher>> prefetchers;
    std::vector<Addr> prefetchScratch;
    Counter prefetchIssued = 0;

    Cycle horizon = 0;

    // Fan-out client mode: record source, per-core cursor views into
    // the ReplayStreams, and per-core set-divergence flags (one byte
    // per set per store; a reference replays only when the L1 and L2
    // sets it touches are all clean).
    FanoutFeed *feed = nullptr;
    std::vector<ReplayStream *> replays;
    struct DivergedSets
    {
        bool any = false; //!< fast path: nothing marked for this core
        std::vector<std::uint8_t> l1i;
        std::vector<std::uint8_t> l1d;
        std::vector<std::uint8_t> l2;
    };
    std::vector<DivergedSets> diverged;
    std::uint64_t feedReplayed = 0; //!< replayed refs (diagnostics only)
    std::uint64_t feedFellBack = 0; //!< real-classify refs in feed mode

    /**
     * Express-lane state of one fan-out core.  While active, the core's
     * canonical position is (cursor, baseReady) with the feed's
     * cumulative totals through cursor-1 cached in baseCumA/baseCumI;
     * its Core object and private hierarchy are only exact through
     * exactCursor and at the ready times of executed LLC events.  The
     * scheduler sees the core at the pre-step ready time of its next
     * LLC-bound record (eventIdx/eventPreReady).
     */
    struct ExpressCore
    {
        bool active = false;
        bool hasEvent = false;
        std::uint64_t cursor = 0;      //!< next unconsumed record
        std::uint64_t exactCursor = 0; //!< private state exact through
        Cycle baseReady = 0;           //!< canonical pre-ready of cursor
        std::uint64_t baseCumA = 0;    //!< feed cumAIncl(cursor-1)
        std::uint64_t baseCumI = 0;    //!< feed cumIIncl(cursor-1)
        std::uint64_t eventIdx = 0;
        Cycle eventPreReady = 0;
    };
    std::vector<ExpressCore> express;
    bool expressEligible = false; //!< config allows express replay
    bool expressDemoted = false;  //!< a recall deactivated a core mid-burst
    // Scheduling key of the step in flight, so a recall can pin the
    // canonical position of an express core it must materialize.
    bool curKeyValid = false;
    //! The in-flight express step has passed its SLLC response (its
    //! whole record is canonical, not just the classify phase).
    bool curKeyCompletion = false;
    std::uint32_t curKeyIdx = 0;
    Cycle curKeyReady = 0;
    CacheGeometry privL1Geom;
    CacheGeometry privL2Geom;

    // Periodic integrity hook (verify layer).
    std::uint64_t refsProcessed = 0;
    std::uint64_t checkEvery = 0;
    std::function<void(const Cmp &, Cycle)> checkHook;

    // Periodic checkpoint hook (snapshot layer).
    std::uint64_t snapEvery = 0;
    std::function<void(const Cmp &, Cycle)> snapHook;

    // Cycle-cadence sampling hook (telemetry epoch sampler).
    Cycle sampleEvery = 0;
    Cycle sampleNext = 0;
    std::function<void(const Cmp &, Cycle)> sampleHook;

    // Watchdog wiring (heartbeat out, abort in).
    std::atomic<std::uint64_t> *progressPtr = nullptr;
    const std::atomic<bool> *abortPtr = nullptr;
    std::function<void(const Cmp &)> onAbort;

    // Measurement snapshots.
    Cycle snapCycle = 0;
    std::vector<std::uint64_t> snapInstr;
    std::vector<Counter> snapL1Miss;
    std::vector<Counter> snapL2Miss;
    std::vector<Counter> snapLlcMiss;
};

} // namespace rc

#endif // RC_SIM_CMP_HH
