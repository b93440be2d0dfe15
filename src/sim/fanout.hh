/**
 * @file
 * Single-pass multi-config simulation: one front end generates the
 * private-hierarchy reference outcome stream once, and N complete
 * SLLC+DRAM back ends consume it in lockstep.
 *
 * The front end (FanoutFeed) owns one set of reference streams and one
 * "virgin" private hierarchy per core — virgin because it completes
 * every L2 miss immediately and is never recalled, having no SLLC
 * behind it.  Each reference becomes a StepRecord pinning the outcome
 * kind and the exact ways touched.  Every member Cmp keeps its own
 * private-hierarchy replicas, SLLC, DRAM, crossbar and stats; a member
 * replays records while the sets a record touches are bit-identical to
 * the virgin hierarchy's, and falls back to the ordinary classify path
 * (marking the disturbed sets diverged) once its own SLLC's recalls or
 * downgrades have made them differ.  Replay and fallback produce
 * bit-identical state and stats either way — the record path merely
 * skips the tag scans and LRU victim searches the front end already
 * performed.
 *
 * On top of replay sits the express lane: while a member core has no
 * diverged sets, private hits cannot affect anything outside the core,
 * so only LLC-bound records interact with shared state.  The feed keeps
 * per-record prefix sums of private-side cycle cost and retirement
 * count plus per-chunk images of the virgin hierarchy, letting a member
 * jump straight from one LLC-bound record to the next in O(1) — private
 * state is left stale and materialized (nearest virgin image + record
 * replay) only when a recall/downgrade lands, divergence begins, or the
 * run() commits.  Because the canonical scheduler order among LLC-bound
 * steps is preserved exactly, express members stay bit-identical to
 * independent runs.
 *
 * FanoutCmp drives its members in bounded cycle quanta so the shared
 * record window stays small, and commits each member's horizon only at
 * the end of a run() call so mid-run hooks observe exactly what an
 * unsliced run() would show.
 */

#ifndef RC_SIM_FANOUT_HH
#define RC_SIM_FANOUT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/private_cache.hh"
#include "common/log.hh"
#include "sim/cmp.hh"
#include "sim/feed_cache.hh"
#include "sim/system_config.hh"
#include "sim/trace.hh"

namespace rc
{

/** Builds the per-core reference streams for one mix (used once live,
 *  and again when a checkpoint needs a stream image reconstructed). */
using StreamFactory =
    std::function<std::vector<std::unique_ptr<RefStream>>()>;

/**
 * The shared fan-out front end: streams + virgin private hierarchies,
 * producing per-core StepRecord sequences on demand.
 *
 * Records are generated lazily in chunks as members consume them and
 * trimmed once every member is past them, so the live window is bounded
 * by the members' lockstep quantum — in capture mode too, where each
 * chunk is also appended to a FeedSpill the moment it is generated.
 * At each chunk boundary the feed
 * snapshots the underlying stream state; ReplayStream::save() rebuilds
 * a bit-exact stream image for any record index from the nearest
 * snapshot, keeping member checkpoints byte-identical to independent
 * runs'.
 */
class FanoutFeed
{
  public:
    /**
     * @param priv private-hierarchy sizing shared by every member.
     * @param factory stream builder; invoked once immediately (unless
     *        replaying from @p blob), and again per checkpointed stream
     *        image.
     * @param blob a validated feed-cache blob to replay from: records,
     *        prefix sums, the LLC-bound index and all chunk-boundary
     *        snapshots come zero-copy out of the mapping, and no
     *        stream or virgin-hierarchy simulation happens unless a
     *        member consumes past the blob's horizon (goLive()).
     * @param capture stream every generated chunk (records, prefix
     *        sums, snapshots) into a FeedSpill for a later
     *        FeedCache::store(); mutually exclusive with @p blob.  If
     *        no spill can be created the feed runs uncaptured (with a
     *        warning) and store() persists nothing.
     * @param captureDir directory the spill is created in: the feed
     *        cache's own, so store() lands it with a link; empty =
     *        $TMPDIR or /tmp.
     */
    FanoutFeed(const PrivateConfig &priv, StreamFactory factory,
               std::shared_ptr<const FeedBlob> blob = nullptr,
               bool capture = false, const std::string &captureDir = {});

    ~FanoutFeed();

    /** Record @p idx of @p core, generating on demand. */
    const StepRecord &record(CoreId core, std::uint64_t idx)
    {
        PerCore &pc = per[core];
        if (idx < pc.flatCount)
            return flatRec(pc, idx);
        if (idx >= pc.generated)
            extend(core, idx);
        return pc.ring[idx & (pc.ring.size() - 1)];
    }

    /**
     * Express-lane prefix sums (see Cmp's express mode): every record
     * has a fixed private-side cycle cost `a = think + latency(kind)`
     * (for LLC-bound records, up to the SLLC issue point) and a fixed
     * retirement count `i = think + (isInstr ? 0 : 1)`; cumAIncl/
     * cumIIncl return the running totals through record @p idx.  A
     * member that knows its canonical ready time and cumulative totals
     * at one record index can therefore jump to any later index in
     * O(1), provided no LLC-bound record (whose completion time depends
     * on the member's own SLLC) lies in between.
     */
    std::uint64_t cumAIncl(CoreId core, std::uint64_t idx) const
    {
        const PerCore &pc = per[core];
        if (idx < pc.flatCount)
            return flatSum(pc, idx, kChunkCumAOff);
        RC_ASSERT(idx >= pc.base && idx < pc.generated,
                  "cumAIncl(%llu) outside live window [%llu, %llu)",
                  static_cast<unsigned long long>(idx),
                  static_cast<unsigned long long>(pc.base),
                  static_cast<unsigned long long>(pc.generated));
        return pc.cumA[idx & (pc.ring.size() - 1)];
    }

    /** Running retirement total through record @p idx (see cumAIncl). */
    std::uint64_t cumIIncl(CoreId core, std::uint64_t idx) const
    {
        const PerCore &pc = per[core];
        if (idx < pc.flatCount)
            return flatSum(pc, idx, kChunkCumIOff);
        RC_ASSERT(idx >= pc.base && idx < pc.generated,
                  "cumIIncl(%llu) outside live window",
                  static_cast<unsigned long long>(idx));
        return pc.cumI[idx & (pc.ring.size() - 1)];
    }

    /** Next LLC-bound record of @p core at or after @p cursor, if its
     *  canonical pre-step ready time lands before @p end. */
    struct NextEvent
    {
        bool hasEvent = false;
        std::uint64_t idx = 0;  //!< record index of the LLC-bound step
        Cycle preReady = 0;     //!< core ready time just before it
    };

    /**
     * Find the next LLC-bound record for a core whose canonical state
     * is (@p cursor, @p base_ready) with cumulative cost @p base_cum_a
     * through record cursor-1 (0 when cursor is 0).  Generates records
     * as needed, but never past the point where the core's ready time
     * provably reaches @p end.
     */
    NextEvent nextLlcBounded(CoreId core, std::uint64_t cursor,
                             std::uint64_t base_cum_a, Cycle base_ready,
                             Cycle end);

    /** First record index >= @p cursor whose pre-step ready time
     *  reaches @p end (the canonical cursor at a quantum boundary). */
    std::uint64_t cursorAtCycle(CoreId core, std::uint64_t cursor,
                                std::uint64_t base_cum_a,
                                Cycle base_ready, Cycle end);

    /**
     * First record index >= @p cursor scheduled after another core's
     * step at ready time @p key_ready: with @p strict set the boundary
     * is preReady > key_ready (this core wins ready-time ties), without
     * it preReady >= key_ready (the other core wins ties).  Used to pin
     * the canonical position of an express core when a recall from a
     * concurrent step must observe its private state.
     */
    std::uint64_t cursorAtKey(CoreId core, std::uint64_t cursor,
                              std::uint64_t base_cum_a, Cycle base_ready,
                              Cycle key_ready, bool strict);

    /**
     * Rebuild exact private-hierarchy state as of record @p idx into
     * @p hier: restore the newest virgin-hierarchy image at or before
     * @p idx and replay the intervening records.  Only valid for a
     * member core that has never diverged from the feed (its state is
     * bit-identical to the virgin hierarchy's at every record index).
     */
    void materializeHier(CoreId core, std::uint64_t idx,
                         PrivateHierarchy &hier) const;

    /** Drop records below index @p min_idx (every member is past them),
     *  along with stream snapshots no checkpoint can need any more. */
    void trim(CoreId core, std::uint64_t min_idx);

    /** Label of @p core's underlying stream. */
    const char *label(CoreId core) const
    {
        return labels[core].c_str();
    }

    /** Number of per-core streams the factory produced. */
    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(per.size());
    }

    /**
     * Serialize @p core's underlying stream exactly as it stood before
     * record @p idx was generated: rebuild a fresh stream, restore the
     * nearest chunk-boundary snapshot at or before @p idx and advance
     * the difference.  Called by ReplayStream::save() so member
     * checkpoints carry true stream state.
     */
    void saveStreamAt(CoreId core, std::uint64_t idx, Serializer &s) const;

    /** Records generated so far for @p core (tests/diagnostics).  In
     *  replay mode this starts at the blob's record count. */
    std::uint64_t generatedCount(CoreId core) const
    {
        return per[core].generated;
    }

    /** Replaying from a feed-cache blob? */
    bool warm() const { return blob != nullptr; }

    /** Constructed to capture for a FeedCache::store()? */
    bool capturing() const { return capture; }

    /** Live ring capacity of @p core in records (tests/diagnostics). */
    std::size_t ringCapacity(CoreId core) const
    {
        return per[core].ring.size();
    }

    /** Blob records available to @p core without any simulation. */
    std::uint64_t warmCount(CoreId core) const
    {
        return per[core].flatCount;
    }

  private:
    friend class FeedCache; // store() lands the spill under a key
    /** Stream-state image taken at a chunk boundary. */
    struct StreamSnap
    {
        std::uint64_t idx = 0;           //!< first record it precedes
        std::vector<std::uint8_t> image; //!< Serializer::image() bytes
    };

    /** Virgin-hierarchy image taken at a chunk boundary (anchors
     *  express-lane state materialization, see materializeHier()). */
    struct HierSnap
    {
        std::uint64_t idx = 0;           //!< first record it precedes
        std::vector<std::uint8_t> image; //!< Serializer::image() bytes
    };

    struct PerCore
    {
        std::uint64_t base = 0;      //!< oldest ring-resident index
        std::uint64_t generated = 0; //!< next index to generate
        /** Replay mode: zero-copy views into the mapped blob's chunk
         *  blocks (FeedBlob::CoreView::chunks).  Records [0, flatCount)
         *  live there permanently (never trimmed); the ring only ever
         *  holds indices >= flatCount, generated live past the blob's
         *  horizon. */
        const std::uint8_t *const *flatChunks = nullptr;
        const std::uint64_t *flatLlc = nullptr;
        std::uint64_t flatCount = 0;
        std::uint64_t flatLlcCount = 0;
        /** Live record window as a power-of-2 ring: record @c i lives at
         *  slot <tt>i & (ring.size()-1)</tt>, so the members' hot-path
         *  fetch is one masked load with no deque block chasing.  Grown
         *  (doubled, slots remapped) when the window outruns it. */
        std::vector<StepRecord> ring;
        //! Inclusive prefix sums parallel to `ring` (same slot mapping):
        //! cumA = private-side cycles, cumI = retirement counts.
        std::vector<std::uint64_t> cumA;
        std::vector<std::uint64_t> cumI;
        std::uint64_t aTotal = 0; //!< running total feeding cumA
        std::uint64_t iTotal = 0; //!< running total feeding cumI
        //! Absolute indices of LLC-bound records in the live window.
        std::deque<std::uint64_t> llcIdx;
        std::deque<StreamSnap> snaps;
        std::deque<HierSnap> hsnaps;
    };

    /** Generate whole chunks until @p idx exists. */
    void extend(CoreId core, std::uint64_t idx);

    /**
     * Replay mode only: a member consumed past the blob's horizon, so
     * rebuild live front-end state for @p core — fresh streams from the
     * factory, the stream restored from the blob's newest snapshot and
     * advanced, and the virgin hierarchy re-materialized by record
     * replay — then generation continues exactly as a cold run would.
     */
    void goLive(CoreId core);

    /** Blob record @p idx (< flatCount): chunk block, then slot. */
    static const StepRecord &flatRec(const PerCore &pc, std::uint64_t idx)
    {
        return reinterpret_cast<const StepRecord *>(
            pc.flatChunks[idx >> kFeedChunkShift])[idx & (kChunk - 1)];
    }

    /** Blob prefix sum through @p idx (< flatCount) from the array at
     *  byte offset @p off of its chunk block (cumA or cumI). */
    static std::uint64_t flatSum(const PerCore &pc, std::uint64_t idx,
                                 std::uint64_t off)
    {
        return reinterpret_cast<const std::uint64_t *>(
            pc.flatChunks[idx >> kFeedChunkShift] +
            off)[idx & (kChunk - 1)];
    }

    /** Prefix sum through @p idx, flat or ring. */
    std::uint64_t cumAt(const PerCore &pc, std::uint64_t idx) const
    {
        return idx < pc.flatCount
                   ? flatSum(pc, idx, kChunkCumAOff)
                   : pc.cumA[idx & (pc.ring.size() - 1)];
    }

    /** Record @p idx, flat or ring (must already exist). */
    const StepRecord &recAt(const PerCore &pc, std::uint64_t idx) const
    {
        return idx < pc.flatCount
                   ? flatRec(pc, idx)
                   : pc.ring[idx & (pc.ring.size() - 1)];
    }

    /** Canonical pre-step ready time of record @p j for a core at
     *  (@p cursor, @p base_ready, @p base_cum_a); j >= cursor and
     *  [cursor, j) all private-complete. */
    Cycle preReadyOf(const PerCore &pc, std::uint64_t cursor,
                     std::uint64_t base_cum_a, Cycle base_ready,
                     std::uint64_t j) const
    {
        return j == cursor
                   ? base_ready
                   : base_ready + (cumAt(pc, j - 1) - base_cum_a);
    }

    /** First index in [cursor, limit] whose pre-step ready time passes
     *  @p bound (`>` when strict, else `>=`). */
    std::uint64_t firstAtOrPast(const PerCore &pc, std::uint64_t cursor,
                                std::uint64_t base_cum_a,
                                Cycle base_ready, std::uint64_t limit,
                                Cycle bound, bool strict) const;

    /** Double @p pc's ring and remap the live window into it. */
    static void growRing(PerCore &pc);

    /** Records per generation chunk (and snapshot cadence). */
    static constexpr std::uint64_t kChunk = kFeedChunk;

    /** Initial ring capacity (slots; must be a power of two). */
    static constexpr std::size_t kInitialRing = 8192;

    PrivateConfig privCfg;
    StreamFactory factory;
    std::vector<std::unique_ptr<RefStream>> streams;
    std::vector<std::unique_ptr<PrivateHierarchy>> virgin;
    std::vector<std::string> labels;
    std::vector<PerCore> per;
    //! Replay source; owning it keeps the mapping alive for the flat
    //! pointers above.
    std::shared_ptr<const FeedBlob> blob;
    bool capture = false;
    //! Capture mode: where generated chunks go (moved out by store()).
    std::unique_ptr<FeedSpill> spill;
};

/**
 * Stand-in RefStream a fan-out member core is constructed with.  The
 * member's run loop reads StepRecords straight from the feed (never
 * next()); the stream exists so checkpoints of member systems carry the
 * same per-core stream sections as independent runs.  The consumption
 * cursor lives here so Cmp::save() can serialize stream state at the
 * exact reference boundary the member has reached.
 */
class ReplayStream final : public RefStream
{
  public:
    ReplayStream(FanoutFeed &feed_, CoreId core_)
        : feed(feed_), coreId(core_)
    {
    }

    /** Never called in fan-out mode; reaching it is a driver bug. */
    MemRef next() override;

    const char *label() const override { return feed.label(coreId); }

    /** Serialize the underlying stream as of this member's cursor. */
    void save(Serializer &s) const override
    {
        feed.saveStreamAt(coreId, cursor, s);
    }

    /** Members are never restored into; resume runs independently. */
    void restore(Deserializer &d) override;

    /** Core this stream stands in for. */
    CoreId core() const { return coreId; }

    /** Next record index to consume (owned by the member's run loop). */
    std::uint64_t cursor = 0;

  private:
    FanoutFeed &feed;
    CoreId coreId;
};

/**
 * One front-end pass fanned out to N SLLC back ends in lockstep.
 *
 * Every member is a complete Cmp (private hierarchies, crossbar, SLLC,
 * DRAM, stats, hooks) attached to the shared feed; run() interleaves
 * the members in bounded cycle quanta so the feed's record window stays
 * small.  Stats, checkpoints and telemetry of each member are
 * bit-identical to an independent Cmp run of the same config.
 */
class FanoutCmp
{
  public:
    /**
     * @param configs one SystemConfig per member; all must agree on the
     *        front-end prefix (samePrivatePrefix()) and have
     *        prefetching disabled.
     * @param factory builds the shared per-core streams.
     * @param blob feed-cache blob to replay the front end from (warm
     *        hit); nullptr simulates the front end as usual.
     * @param capture stream the front end into a spill so the caller
     *        can FeedCache::store() it after the run.
     * @param captureDir directory for the spill (see FanoutFeed).
     */
    FanoutCmp(const std::vector<SystemConfig> &configs,
              StreamFactory factory,
              std::shared_ptr<const FeedBlob> blob = nullptr,
              bool capture = false, const std::string &captureDir = {});

    /**
     * Do @p a and @p b agree on every FrontEnd field of forEachField()
     * (cores, private hierarchy, prefetch, seed, capacity scale)?  The
     * harness groups runs by this predicate (plus the mix) to decide
     * what can share one fan-out pass.
     */
    static bool samePrivatePrefix(const SystemConfig &a,
                                  const SystemConfig &b);

    /** Number of members. */
    std::size_t size() const { return members.size(); }

    /** Member @p i, for hook installation and result collection. */
    Cmp &member(std::size_t i) { return *members[i]; }

    /** Member @p i, const. */
    const Cmp &member(std::size_t i) const { return *members[i]; }

    /** The shared feed (tests/diagnostics). */
    FanoutFeed &sharedFeed() { return *feed; }

    /** Advance every member by @p cycles, interleaved in quanta. */
    void run(Cycle cycles);

    /** beginMeasurement() on every member. */
    void beginMeasurement();

    /** Common simulated horizon of the members. */
    Cycle now() const { return members.front()->now(); }

  private:
    /** Lockstep quantum: members drift at most this many cycles apart,
     *  bounding the feed's live record window.  Larger quanta amortize
     *  member switches (each member's private metadata stays hot for
     *  the whole slice) at the price of a wider record window. */
    static constexpr Cycle kQuantum = 262144;

    std::unique_ptr<FanoutFeed> feed;
    std::vector<std::unique_ptr<Cmp>> members;
    //! [member][core] cursor views (borrowed from the member's streams).
    std::vector<std::vector<ReplayStream *>> cursors;
};

} // namespace rc

#endif // RC_SIM_FANOUT_HH
