#include "sim/fanout.hh"

#include <algorithm>

#include "common/log.hh"
#include "snapshot/serializer.hh"

namespace rc
{

namespace
{

/** Newest snapshot at or before @p idx: the live deque wins when it
 *  has one (its entries all follow the blob's), else the blob's
 *  vector is binary-searched.  The result's data pointer is null when
 *  neither side has an anchor. */
template <typename LiveSnap>
FeedBlob::Snap
newestSnapAtOrBefore(const std::deque<LiveSnap> &live,
                     const std::vector<FeedBlob::Snap> *flat,
                     std::uint64_t idx)
{
    const LiveSnap *anchor = nullptr;
    for (const LiveSnap &snap : live) {
        if (snap.idx > idx)
            break;
        anchor = &snap;
    }
    if (anchor)
        return {anchor->idx, anchor->image.data(), anchor->image.size()};
    if (flat && !flat->empty()) {
        // First blob snap past idx, then step back one.
        auto it = std::upper_bound(
            flat->begin(), flat->end(), idx,
            [](std::uint64_t v, const FeedBlob::Snap &s) {
                return v < s.idx;
            });
        if (it != flat->begin())
            return *--it;
    }
    return {};
}

/** A Deserializer over a snapshot image. */
Deserializer
snapReader(const FeedBlob::Snap &snap)
{
    return Deserializer(
        std::vector<std::uint8_t>(snap.data, snap.data + snap.len));
}

} // namespace

FanoutFeed::FanoutFeed(const PrivateConfig &priv, StreamFactory factory_,
                       std::shared_ptr<const FeedBlob> blob_,
                       bool capture_, const std::string &captureDir)
    : privCfg(priv), factory(std::move(factory_)), blob(std::move(blob_)),
      capture(capture_)
{
    RC_ASSERT(factory, "fan-out feed needs a stream factory");
    RC_ASSERT(!(blob && capture),
              "a warm feed replays; there is nothing new to capture");
    if (blob) {
        // Replay mode: the blob IS the front end.  No streams, no
        // virgin hierarchies, no record generation — unless a member
        // later consumes past the blob's horizon (goLive()).
        per.resize(blob->numCores());
        labels.reserve(blob->numCores());
        for (std::uint32_t c = 0; c < blob->numCores(); ++c) {
            const FeedBlob::CoreView &view = blob->core(c);
            RC_ASSERT(view.count % kChunk == 0,
                      "feed blob record count %llu is not chunk-aligned",
                      static_cast<unsigned long long>(view.count));
            PerCore &pc = per[c];
            pc.flatChunks = view.chunks.data();
            pc.flatLlc = view.llc;
            pc.flatCount = view.count;
            pc.flatLlcCount = view.llcCount;
            pc.base = view.count;
            pc.generated = view.count;
            pc.aTotal =
                view.count ? flatSum(pc, view.count - 1, kChunkCumAOff) : 0;
            pc.iTotal =
                view.count ? flatSum(pc, view.count - 1, kChunkCumIOff) : 0;
            labels.push_back(view.label);
        }
        return;
    }
    streams = factory();
    RC_ASSERT(!streams.empty(), "stream factory produced no streams");
    virgin.reserve(streams.size());
    labels.reserve(streams.size());
    per.resize(streams.size());
    for (std::uint32_t c = 0; c < streams.size(); ++c) {
        RC_ASSERT(streams[c], "stream factory produced a null stream");
        virgin.push_back(std::make_unique<PrivateHierarchy>(
            privCfg, c, "virgin" + std::to_string(c)));
        labels.emplace_back(streams[c]->label());
        per[c].ring.resize(kInitialRing);
        per[c].cumA.resize(kInitialRing);
        per[c].cumI.resize(kInitialRing);
    }
    if (capture) {
        try {
            spill = std::make_unique<FeedSpill>(captureDir, numCores());
        } catch (const SimError &e) {
            warn("feed capture disabled for this run: %s", e.what());
        }
    }
}

FanoutFeed::~FanoutFeed() = default;

void
FanoutFeed::growRing(PerCore &pc)
{
    std::vector<StepRecord> bigger(pc.ring.size() * 2);
    std::vector<std::uint64_t> bigger_a(bigger.size());
    std::vector<std::uint64_t> bigger_i(bigger.size());
    const std::size_t old_mask = pc.ring.size() - 1;
    const std::size_t new_mask = bigger.size() - 1;
    for (std::uint64_t i = pc.base; i < pc.generated; ++i) {
        bigger[i & new_mask] = pc.ring[i & old_mask];
        bigger_a[i & new_mask] = pc.cumA[i & old_mask];
        bigger_i[i & new_mask] = pc.cumI[i & old_mask];
    }
    pc.ring.swap(bigger);
    pc.cumA.swap(bigger_a);
    pc.cumI.swap(bigger_i);
}

void
FanoutFeed::goLive(CoreId core)
{
    // A member outran the blob.  Rebuild exactly the live state a cold
    // run would have at the blob's horizon: fresh streams restored from
    // the newest stream snapshot and advanced, and the virgin hierarchy
    // re-materialized by replaying the flat records past the newest
    // hierarchy snapshot.  Everything generated from here on is
    // bit-identical to a cold run's continuation.
    PerCore &pc = per[core];
    if (streams.empty()) {
        streams = factory();
        RC_ASSERT(streams.size() == per.size(),
                  "stream factory produced %zu streams for %zu cores",
                  streams.size(), per.size());
        virgin.resize(per.size());
    }
    if (virgin[core])
        return;
    const FeedBlob::CoreView &view = blob->core(core);
    {
        RC_ASSERT(!view.streamSnaps.empty(),
                  "feed blob carries no stream snapshots for core %u",
                  core);
        const FeedBlob::Snap &anchor = view.streamSnaps.back();
        RC_ASSERT(anchor.idx <= pc.flatCount,
                  "feed blob stream snapshot beyond its records");
        Deserializer d = snapReader(anchor);
        d.beginSection("stream");
        streams[core]->restore(d);
        d.endSection();
        for (std::uint64_t i = anchor.idx; i < pc.flatCount; ++i)
            (void)streams[core]->next();
    }
    virgin[core] = std::make_unique<PrivateHierarchy>(
        privCfg, core, "virgin" + std::to_string(core));
    materializeHier(core, pc.flatCount, *virgin[core]);
    if (pc.ring.empty()) {
        pc.ring.resize(kInitialRing);
        pc.cumA.resize(kInitialRing);
        pc.cumI.resize(kInitialRing);
    }
}

void
FanoutFeed::extend(CoreId core, std::uint64_t idx)
{
    PerCore &pc = per[core];
    if (blob && (virgin.size() <= core || !virgin[core]))
        goLive(core);
    RefStream &stream = *streams[core];
    PrivateHierarchy &hier = *virgin[core];
    while (pc.generated <= idx) {
        // The live window [base, generated + kChunk) must fit the ring.
        while (pc.generated + kChunk - pc.base > pc.ring.size())
            growRing(pc);
        // Chunk boundary: image the stream state before generating the
        // chunk, so any record index inside it can be reconstructed,
        // and the virgin hierarchy so express-lane members can
        // materialize exact private state at any index inside it.
        {
            Serializer ser;
            ser.beginSection("stream");
            stream.save(ser);
            ser.endSection();
            pc.snaps.push_back(StreamSnap{pc.generated, ser.image()});
        }
        {
            Serializer ser;
            ser.beginSection("hier");
            hier.save(ser);
            ser.endSection();
            pc.hsnaps.push_back(HierSnap{pc.generated, ser.image()});
        }
        const std::size_t mask = pc.ring.size() - 1;
        const std::size_t first = pc.generated & mask;
        for (std::uint64_t i = 0; i < kChunk; ++i) {
            StepRecord &rec = pc.ring[pc.generated & mask];
            const MemRef r = stream.next();
            rec = StepRecord{};
            rec.line = lineAlign(r.addr);
            rec.pc = r.pc;
            rec.think = r.think;
            if (r.isInstr)
                rec.flags |= StepRecord::kInstr;
            if (r.op == MemOp::Write)
                rec.flags |= StepRecord::kWrite;
            const PrivateMissAction act =
                hier.classifyRecord(rec.line, r.op, r.isInstr, rec);
            if (act.needLlc) {
                // The virgin hierarchy completes misses immediately:
                // with no SLLC behind it, fills and upgrades always
                // succeed and nothing ever recalls its lines.
                if (act.event == ProtoEvent::UPG) {
                    hier.upgradedRecord(rec.line, rec);
                } else {
                    Addr evict_line = 0;
                    bool evict_dirty = false;
                    hier.fillRecord(rec.line, r.isInstr,
                                    act.event == ProtoEvent::GETX,
                                    evict_line, evict_dirty, rec);
                }
                pc.llcIdx.push_back(pc.generated);
                if (spill)
                    spill->appendLlc(core, pc.generated);
            }
            pc.aTotal += rec.think + act.latency;
            pc.iTotal += rec.think + (r.isInstr ? 0 : 1);
            pc.cumA[pc.generated & mask] = pc.aTotal;
            pc.cumI[pc.generated & mask] = pc.iTotal;
            ++pc.generated;
        }
        // Capture: the chunk is final, so it goes to the spill now (its
        // ring slots are contiguous — the ring is a multiple of kChunk
        // and chunks start on kChunk boundaries) and the live window
        // trims exactly as an uncaptured feed's does.
        if (spill)
            spill->appendChunk(core, &pc.ring[first], &pc.cumA[first],
                               &pc.cumI[first], pc.snaps.back().image,
                               pc.hsnaps.back().image);
    }
}

void
FanoutFeed::trim(CoreId core, std::uint64_t min_idx)
{
    // Capture mode trims like any feed: every chunk went to the spill
    // when it was generated.  Blob-backed records are never trimmed —
    // they are a read-only mapping, and base already starts at the
    // blob's horizon.
    PerCore &pc = per[core];
    // Trim to the chunk boundary below min_idx, not min_idx itself:
    // materializeHier() replays records from the newest hierarchy
    // snapshot at or before a member's cursor, so the records between
    // that boundary and the cursor must stay live.
    const std::uint64_t floor_idx = min_idx & ~(kChunk - 1);
    if (floor_idx > pc.base)
        pc.base = std::min(floor_idx, pc.generated);
    while (!pc.llcIdx.empty() && pc.llcIdx.front() < pc.base)
        pc.llcIdx.pop_front();
    // Keep the newest snapshot at or before the floor: it anchors
    // stream/hierarchy reconstruction for every index a member can
    // still reach.
    while (pc.snaps.size() >= 2 && pc.snaps[1].idx <= floor_idx)
        pc.snaps.pop_front();
    while (pc.hsnaps.size() >= 2 && pc.hsnaps[1].idx <= floor_idx)
        pc.hsnaps.pop_front();
}

FanoutFeed::NextEvent
FanoutFeed::nextLlcBounded(CoreId core, std::uint64_t cursor,
                           std::uint64_t base_cum_a, Cycle base_ready,
                           Cycle end)
{
    PerCore &pc = per[core];
    // Replay fast path: binary-search the blob's flat LLC-bound index.
    // Falls through to the live window only once the flat index is
    // exhausted (the live llcIdx holds indices >= flatCount only).
    if (cursor < pc.flatCount && pc.flatLlcCount != 0) {
        const std::uint64_t *it = std::lower_bound(
            pc.flatLlc, pc.flatLlc + pc.flatLlcCount, cursor);
        if (it != pc.flatLlc + pc.flatLlcCount) {
            const std::uint64_t k = *it;
            const Cycle pre =
                preReadyOf(pc, cursor, base_cum_a, base_ready, k);
            if (pre >= end)
                return NextEvent{};
            return NextEvent{true, k, pre};
        }
    }
    for (;;) {
        const auto it = std::lower_bound(pc.llcIdx.begin(),
                                         pc.llcIdx.end(), cursor);
        if (it != pc.llcIdx.end()) {
            const std::uint64_t k = *it;
            const Cycle pre =
                preReadyOf(pc, cursor, base_cum_a, base_ready, k);
            if (pre >= end)
                return NextEvent{};
            return NextEvent{true, k, pre};
        }
        // No LLC-bound record generated yet: if the core provably
        // reaches the quantum boundary first, stop; otherwise generate
        // another chunk and look again.
        if (preReadyOf(pc, cursor, base_cum_a, base_ready,
                       pc.generated) >= end) {
            return NextEvent{};
        }
        extend(core, pc.generated);
    }
}

std::uint64_t
FanoutFeed::firstAtOrPast(const PerCore &pc, std::uint64_t cursor,
                          std::uint64_t base_cum_a, Cycle base_ready,
                          std::uint64_t limit, Cycle bound,
                          bool strict) const
{
    std::uint64_t lo = cursor;
    std::uint64_t hi = limit;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        const Cycle pre =
            preReadyOf(pc, cursor, base_cum_a, base_ready, mid);
        const bool past = strict ? pre > bound : pre >= bound;
        if (past)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

std::uint64_t
FanoutFeed::cursorAtCycle(CoreId core, std::uint64_t cursor,
                          std::uint64_t base_cum_a, Cycle base_ready,
                          Cycle end)
{
    PerCore &pc = per[core];
    while (pc.generated <= cursor ||
           preReadyOf(pc, cursor, base_cum_a, base_ready,
                      pc.generated) < end) {
        extend(core, pc.generated);
    }
    return firstAtOrPast(pc, cursor, base_cum_a, base_ready,
                         pc.generated, end, false);
}

std::uint64_t
FanoutFeed::cursorAtKey(CoreId core, std::uint64_t cursor,
                        std::uint64_t base_cum_a, Cycle base_ready,
                        Cycle key_ready, bool strict)
{
    PerCore &pc = per[core];
    while (pc.generated <= cursor ||
           preReadyOf(pc, cursor, base_cum_a, base_ready,
                      pc.generated) <= key_ready) {
        extend(core, pc.generated);
    }
    return firstAtOrPast(pc, cursor, base_cum_a, base_ready,
                         pc.generated, key_ready, strict);
}

void
FanoutFeed::materializeHier(CoreId core, std::uint64_t idx,
                            PrivateHierarchy &hier) const
{
    const PerCore &pc = per[core];
    RC_ASSERT(idx <= pc.generated,
              "materializeHier(%llu) beyond generated %llu",
              static_cast<unsigned long long>(idx),
              static_cast<unsigned long long>(pc.generated));
    const FeedBlob::Snap anchor = newestSnapAtOrBefore(
        pc.hsnaps, blob ? &blob->core(core).hierSnaps : nullptr, idx);
    RC_ASSERT(anchor.data,
              "no hierarchy snapshot at or before record %llu of core %u",
              static_cast<unsigned long long>(idx), core);
    {
        Deserializer d = snapReader(anchor);
        d.beginSection("hier");
        hier.restore(d);
        d.endSection();
    }
    // Replay the intervening records: a never-diverged member replica
    // is bit-identical to the virgin hierarchy at every index, so the
    // apply path reproduces its exact state (and counters) at idx.
    for (std::uint64_t i = anchor.idx; i < idx; ++i) {
        const StepRecord &rec = recAt(pc, i);
        const PrivateMissAction act = hier.applyClassify(rec);
        if (act.needLlc) {
            if (act.event == ProtoEvent::UPG) {
                hier.applyUpgraded(rec);
            } else {
                Addr evict_line = 0;
                bool evict_dirty = false;
                (void)hier.applyFill(rec, evict_line, evict_dirty);
            }
        }
    }
}

void
FanoutFeed::saveStreamAt(CoreId core, std::uint64_t idx,
                         Serializer &s) const
{
    const PerCore &pc = per[core];
    const FeedBlob::Snap anchor = newestSnapAtOrBefore(
        pc.snaps, blob ? &blob->core(core).streamSnaps : nullptr, idx);
    RC_ASSERT(anchor.data,
              "no stream snapshot at or before record %llu of core %u",
              static_cast<unsigned long long>(idx), core);

    std::vector<std::unique_ptr<RefStream>> fresh = factory();
    RC_ASSERT(core < fresh.size(), "stream factory shrank");
    RefStream &stream = *fresh[core];
    {
        Deserializer d = snapReader(anchor);
        d.beginSection("stream");
        stream.restore(d);
        d.endSection();
    }
    for (std::uint64_t i = anchor.idx; i < idx; ++i)
        (void)stream.next();
    stream.save(s);
}

MemRef
ReplayStream::next()
{
    panic("ReplayStream::next: fan-out members consume StepRecords, "
          "never raw references");
}

void
ReplayStream::restore(Deserializer &d)
{
    (void)d;
    throwSimError(SimError::Kind::Snapshot,
                  "fan-out member systems cannot be restored into; "
                  "resumed runs execute independently");
}

FanoutCmp::FanoutCmp(const std::vector<SystemConfig> &configs,
                     StreamFactory factory_,
                     std::shared_ptr<const FeedBlob> blob,
                     bool capture, const std::string &captureDir)
{
    RC_ASSERT(!configs.empty(), "fan-out needs at least one config");
    const SystemConfig &head = configs.front();
    RC_ASSERT(!head.prefetch.enable,
              "fan-out requires prefetching disabled");
    for (const SystemConfig &c : configs) {
        RC_ASSERT(samePrivatePrefix(head, c),
                  "fan-out members must share the private prefix");
    }

    feed = std::make_unique<FanoutFeed>(head.priv, std::move(factory_),
                                        std::move(blob), capture,
                                        captureDir);
    RC_ASSERT(feed->numCores() == head.numCores,
              "stream factory produced %u streams for %u cores",
              feed->numCores(), head.numCores);

    members.reserve(configs.size());
    cursors.reserve(configs.size());
    for (const SystemConfig &c : configs) {
        std::vector<std::unique_ptr<RefStream>> streams;
        std::vector<ReplayStream *> views;
        streams.reserve(c.numCores);
        views.reserve(c.numCores);
        for (CoreId i = 0; i < c.numCores; ++i) {
            auto rs = std::make_unique<ReplayStream>(*feed, i);
            views.push_back(rs.get());
            streams.push_back(std::move(rs));
        }
        auto m = std::make_unique<Cmp>(c, std::move(streams));
        m->attachFeed(feed.get());
        members.push_back(std::move(m));
        cursors.push_back(std::move(views));
    }
}

bool
FanoutCmp::samePrivatePrefix(const SystemConfig &a, const SystemConfig &b)
{
    bool same = true;
    forEachField(a, b, [&](FieldSide side, const auto &x, const auto &y) {
        same = same && (side != FieldSide::FrontEnd || x == y);
    });
    return same;
}

void
FanoutCmp::run(Cycle cycles)
{
    const Cycle start = now();
    for (const auto &m : members) {
        RC_ASSERT(m->now() == start, "fan-out members out of lockstep");
    }
    const Cycle end = start + cycles;
    // The lockstep quantum exists solely to bound the feed's live
    // record window.  Replaying from a blob, the window is the blob —
    // already materialized, never trimmed — so each member can run its
    // whole horizon in one slice, keeping its SLLC and private
    // metadata hot instead of round-robining every 256K cycles.
    // Results are quantum-invariant either way (members only commit at
    // the end of run()).
    const Cycle quantum =
        feed->warm() && !feed->capturing() ? cycles : kQuantum;
    Cycle target = start;
    while (target < end) {
        target = std::min(target + quantum, end);
        for (auto &m : members)
            m->runSlice(target, target == end);

        // Everything every member has consumed can be dropped.
        for (CoreId c = 0; c < feed->numCores(); ++c) {
            std::uint64_t min_idx = cursors.front()[c]->cursor;
            for (const auto &views : cursors)
                min_idx = std::min(min_idx, views[c]->cursor);
            feed->trim(c, min_idx);
        }
    }
}

void
FanoutCmp::beginMeasurement()
{
    for (auto &m : members)
        m->beginMeasurement();
}

} // namespace rc
