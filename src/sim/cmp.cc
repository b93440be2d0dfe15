#include "sim/cmp.hh"

#include <algorithm>

#include "common/log.hh"
#include "sim/fanout.hh"
#include "snapshot/serializer.hh"
#include "telemetry/trace_event.hh"

namespace rc
{

namespace
{

std::unique_ptr<Sllc>
makeLlc(const SystemConfig &cfg, MemCtrl &mem)
{
    switch (cfg.llcKind) {
      case LlcKind::Conventional:
        return std::make_unique<ConventionalLlc>(cfg.conv, mem);
      case LlcKind::Reuse:
        return std::make_unique<ReuseCache>(cfg.reuse, mem);
      case LlcKind::Ncid:
        return std::make_unique<NcidCache>(cfg.ncid, mem);
    }
    panic("unknown LLC kind");
}

/** @p cfg, once its core count is known to fit the 32-bit core masks. */
const SystemConfig &
checkCoreCount(const SystemConfig &cfg)
{
    if (cfg.numCores > maxCores)
        throwSimError(SimError::Kind::Config,
                      "%u cores requested; at most %u are supported (core "
                      "masks are 32-bit)", cfg.numCores, maxCores);
    return cfg;
}

} // namespace

Cmp::Cmp(const SystemConfig &cfg_,
         std::vector<std::unique_ptr<RefStream>> streams)
    : cfg(checkCoreCount(cfg_)),
      ownedStreams(std::move(streams)),
      mem(cfg_.memory),
      xbar(cfg_.xbar),
      llcPtr(makeLlc(cfg_, mem))
{
    RC_ASSERT(ownedStreams.size() == cfg.numCores,
              "need exactly one stream per core (%u cores, %zu streams)",
              cfg.numCores, ownedStreams.size());
    cores.reserve(cfg.numCores);
    for (CoreId i = 0; i < cfg.numCores; ++i)
        cores.push_back(std::make_unique<Core>(i, cfg.priv,
                                               *ownedStreams[i]));
    llcPtr->setRecallHandler(this);

    if (cfg.prefetch.enable) {
        for (CoreId i = 0; i < cfg.numCores; ++i)
            prefetchers.push_back(std::make_unique<StridePrefetcher>(
                cfg.prefetch, "pf" + std::to_string(i)));
    }

    snapInstr.assign(cfg.numCores, 0);
    snapL1Miss.assign(cfg.numCores, 0);
    snapL2Miss.assign(cfg.numCores, 0);
    snapLlcMiss.assign(cfg.numCores, 0);
}

Cmp::~Cmp() = default;

void
Cmp::issuePrefetches(Core &core, Addr demand_line, Cycle when)
{
    StridePrefetcher &pf = *prefetchers[core.id()];
    prefetchScratch.clear();
    pf.observeMiss(demand_line, prefetchScratch);
    for (Addr cand : prefetchScratch) {
        if (core.priv().present(cand))
            continue;
        // Prefetches ride off the critical path: they consume bank and
        // memory occupancy but never stall the core.
        const Cycle start = xbar.requestSlot(cand, when);
        LlcRequest req{cand, core.id(), ProtoEvent::GETS, start};
        req.prefetch = true;
        const LlcResponse resp = llcPtr->request(req);
        if (resp.memFetched)
            xbar.noteMiss(cand, start, resp.doneAt);
        Addr evict_line = 0;
        bool evict_dirty = false;
        if (core.priv().fillPrefetch(cand, evict_line, evict_dirty)) {
            llcPtr->evictNotify(evict_line, core.id(), evict_dirty,
                                resp.doneAt);
        }
        ++prefetchIssued;
        RC_TEVENT("cmp.prefetch", TraceDomain::Sim, core.id(), start, 0,
                  cand);
    }
}

void
Cmp::attachFeed(FanoutFeed *f)
{
    RC_ASSERT(f, "null feed");
    RC_ASSERT(!feed, "feed already attached");
    RC_ASSERT(!cfg.prefetch.enable,
              "fan-out members must not prefetch (the prefetcher feeds "
              "back into the private hierarchy)");
    RC_ASSERT(horizon == 0 && refsProcessed == 0,
              "attachFeed() must precede the first run()");
    feed = f;
    privL1Geom = CacheGeometry::fromBytes(cfg.priv.l1Bytes, cfg.priv.l1Ways);
    privL2Geom = CacheGeometry::fromBytes(cfg.priv.l2Bytes, cfg.priv.l2Ways);
    replays.resize(cores.size());
    diverged.resize(cores.size());
    for (std::uint32_t i = 0; i < cores.size(); ++i) {
        auto *rs = dynamic_cast<ReplayStream *>(ownedStreams[i].get());
        RC_ASSERT(rs, "fan-out member cores must read ReplayStreams");
        RC_ASSERT(rs->core() == i, "ReplayStream bound to the wrong core");
        replays[i] = rs;
        diverged[i].l1i.assign(privL1Geom.numSets(), 0);
        diverged[i].l1d.assign(privL1Geom.numSets(), 0);
        diverged[i].l2.assign(privL2Geom.numSets(), 0);
    }
    express.assign(cores.size(), ExpressCore{});
    // Express jumps bound their record generation by the quantum end,
    // which needs every record to cost at least one cycle.
    expressEligible = cfg.priv.l1Latency >= 1;
}

bool
Cmp::feedSetsClean(CoreId c, Addr line, bool is_instr) const
{
    const DivergedSets &d = diverged[c];
    if (!d.any)
        return true;
    const std::uint8_t l1 = is_instr ? d.l1i[privL1Geom.setIndex(line)]
                                     : d.l1d[privL1Geom.setIndex(line)];
    return (l1 | d.l2[privL2Geom.setIndex(line)]) == 0;
}

void
Cmp::feedMarkL1(CoreId c, Addr line)
{
    DivergedSets &d = diverged[c];
    const std::uint64_t s1 = privL1Geom.setIndex(line);
    d.any = true;
    d.l1i[s1] = 1;
    d.l1d[s1] = 1;
}

void
Cmp::feedMarkLine(CoreId c, Addr line)
{
    feedMarkL1(c, line);
    diverged[c].l2[privL2Geom.setIndex(line)] = 1;
}

/** Post-response completion of a fan-out LLC step: replay the recorded
 *  fill/upgrade when the touched sets are still clean (the SLLC
 *  transaction may have recalled lines out of this very core, so the
 *  caller's @p replayed verdict is re-checked), otherwise complete for
 *  real and mark everything the record disturbed. */
void
Cmp::completeFanoutLlc(Core &core, const StepRecord &rec,
                       const PrivateMissAction &act, bool replayed,
                       Cycle returned)
{
    const CoreId cid = core.id();
    const Addr line = rec.line;
    const bool is_instr = rec.isInstr();
    if (act.event == ProtoEvent::UPG) {
        if (replayed && feedSetsClean(cid, line, is_instr)) {
            core.priv().applyUpgraded(rec);
        } else {
            core.priv().upgraded(line);
            feedMarkLine(cid, line);
            if (rec.hasVictim())
                feedMarkL1(cid, rec.victimLine);
        }
    } else {
        Addr evict_line = 0;
        bool evict_dirty = false;
        bool evicted;
        if (replayed && feedSetsClean(cid, line, is_instr)) {
            evicted = core.priv().applyFill(rec, evict_line, evict_dirty);
        } else {
            const bool writable = act.event == ProtoEvent::GETX;
            evicted = core.priv().fill(line, is_instr, writable,
                                       evict_line, evict_dirty);
            feedMarkLine(cid, line);
            if (rec.hasVictim())
                feedMarkL1(cid, rec.victimLine);
            if (evicted)
                feedMarkL1(cid, evict_line);
        }
        if (evicted)
            llcPtr->evictNotify(evict_line, cid, evict_dirty, returned);
    }
}

void
Cmp::stepCoreFanout(Core &core)
{
    const CoreId cid = core.id();
    ReplayStream &rs = *replays[cid];
    // Safe to hold by reference: the feed only generates (and may remap
    // its ring) inside record(), and nothing below fetches records.
    const StepRecord &rec = feed->record(cid, rs.cursor);
    ++rs.cursor;

    const Addr line = rec.line;
    const bool is_instr = rec.isInstr();
    const Cycle issue = core.readyAt() + rec.think;

    // Replay the recorded private-hierarchy outcome when every set the
    // record touches is still bit-identical to the recording
    // hierarchy's; otherwise classify for real and mark everything the
    // recording hierarchy disturbed that this replica did not.
    bool replayed = feedSetsClean(cid, line, is_instr);
    PrivateMissAction act;
    if (replayed) {
        ++feedReplayed;
        act = core.priv().applyClassify(rec);
    } else {
        ++feedFellBack;
        act = core.priv().classify(line, rec.op(), is_instr);
        feedMarkLine(cid, line);
        if (rec.hasVictim())
            feedMarkL1(cid, rec.victimLine);
    }

    Cycle done;
    if (!act.needLlc) {
        done = issue + act.latency;
    } else {
        // Publish this step's scheduling key so a recall out of the
        // SLLC transaction can pin the canonical position of any
        // express core it must materialize.
        curKeyReady = core.readyAt();
        curKeyIdx = cid;
        curKeyValid = true;
        const Cycle llc_issue = issue + act.latency;
        const Cycle bank_start = xbar.requestSlot(line, llc_issue);
        LlcRequest lreq{line, cid, act.event, bank_start};
        lreq.pc = rec.pc;
        const LlcResponse resp = llcPtr->request(lreq);
        if (resp.memFetched)
            xbar.noteMiss(line, bank_start, resp.doneAt);
        const Cycle returned = resp.doneAt + xbar.responseLatency();
        completeFanoutLlc(core, rec, act, replayed, returned);
        curKeyValid = false;
        done = returned;
    }

    core.retire(rec.think + (is_instr ? 0 : 1));
    core.setReadyAt(done);
}

void
Cmp::refreshExpressEvent(std::uint32_t c, Cycle end)
{
    ExpressCore &ex = express[c];
    const FanoutFeed::NextEvent e = feed->nextLlcBounded(
        c, ex.cursor, ex.baseCumA, ex.baseReady, end);
    ex.hasEvent = e.hasEvent;
    if (e.hasEvent) {
        ex.eventIdx = e.idx;
        ex.eventPreReady = e.preReady;
        sched.set(c, e.preReady);
    } else {
        // Nothing SLLC-visible before the quantum boundary; park the
        // core there (the commit pass will advance its cursor).
        sched.set(c, end);
    }
}

void
Cmp::expressEvent(std::uint32_t c, Cycle end)
{
    ExpressCore &ex = express[c];
    Core &core = *cores[c];
    const std::uint64_t k = ex.eventIdx;
    // By value: a recall below can force other cores' rings to grow.
    const StepRecord rec = feed->record(c, k);
    const PrivateMissAction act = core.priv().actionOf(rec);

    // Bulk-account the jumped-over private hits plus this record from
    // the feed's prefix sums.
    refsProcessed += (k + 1) - ex.cursor;
    feedReplayed += (k + 1) - ex.cursor;
    core.retire(feed->cumIIncl(c, k) - ex.baseCumI);

    curKeyReady = ex.eventPreReady;
    curKeyIdx = c;
    curKeyValid = true;
    const Cycle llc_issue = ex.eventPreReady + rec.think + act.latency;
    const Cycle bank_start = xbar.requestSlot(rec.line, llc_issue);
    LlcRequest lreq{rec.line, c, act.event, bank_start};
    lreq.pc = rec.pc;
    const LlcResponse resp = llcPtr->request(lreq);
    if (resp.memFetched)
        xbar.noteMiss(rec.line, bank_start, resp.doneAt);
    const Cycle returned = resp.doneAt + xbar.responseLatency();

    if (!ex.active) {
        // The transaction recalled lines out of this very core:
        // materializeExpress() rebuilt exact private state through this
        // record's classify phase; finish on the ordinary path.
        completeFanoutLlc(core, rec, act, true, returned);
    } else {
        // Still clean: the private-side completion is deferred to the
        // next materialization; only the SLLC-visible eviction happens
        // now, straight from the record (bit-identical to what this
        // replica would have evicted, since its sets match the feed's).
        curKeyCompletion = true;
        if (act.event != ProtoEvent::UPG && rec.hasVictim())
            llcPtr->evictNotify(rec.victimLine, c, rec.victimDirty(),
                                returned);
        // A recall out of that eviction may have deactivated this core;
        // materializeExpress() then rebuilt the full record's state.
    }
    curKeyValid = false;
    curKeyCompletion = false;

    core.setReadyAt(returned);
    ex.baseCumA = feed->cumAIncl(c, k);
    ex.baseCumI = feed->cumIIncl(c, k);
    ex.baseReady = returned;
    ex.cursor = k + 1;
    replays[c]->cursor = k + 1;
    if (ex.active) {
        refreshExpressEvent(c, end);
    } else {
        ex.exactCursor = k + 1;
        sched.set(c, returned);
    }
}

void
Cmp::materializeExpress(CoreId c, bool self_step)
{
    ExpressCore &ex = express[c];
    Core &core = *cores[c];
    if (self_step) {
        // Recall out of this core's own in-flight LLC step.  Before the
        // response, everything earlier plus the step's classify phase
        // is canonical; once the completion has begun, the whole record
        // is.  expressEvent()'s epilogue finishes the bookkeeping.
        const std::uint64_t j = ex.eventIdx + (curKeyCompletion ? 1 : 0);
        feed->materializeHier(c, j, core.priv());
        if (!curKeyCompletion)
            (void)core.priv().applyClassify(feed->record(c, ex.eventIdx));
        ex.exactCursor = j;
        ex.active = false;
        expressDemoted = true;
        return;
    }

    // Pin the canonical position of this core relative to the step in
    // flight: records scheduled before the step's (ready, index) key
    // have executed, everything else has not.
    RC_ASSERT(curKeyValid, "fan-out recall outside any step");
    const std::uint64_t j =
        feed->cursorAtKey(c, ex.cursor, ex.baseCumA, ex.baseReady,
                          curKeyReady, /*strict=*/c < curKeyIdx);
    if (j > ex.cursor) {
        refsProcessed += j - ex.cursor;
        feedReplayed += j - ex.cursor;
        core.retire(feed->cumIIncl(c, j - 1) - ex.baseCumI);
        ex.baseReady += feed->cumAIncl(c, j - 1) - ex.baseCumA;
        ex.baseCumA = feed->cumAIncl(c, j - 1);
        ex.baseCumI = feed->cumIIncl(c, j - 1);
        ex.cursor = j;
        replays[c]->cursor = j;
    }
    feed->materializeHier(c, j, core.priv());
    ex.exactCursor = j;
    core.setReadyAt(ex.baseReady);
    sched.set(c, ex.baseReady);
    ex.active = false;
    expressDemoted = true;
}

void
Cmp::finalizeExpress(std::uint32_t c, Cycle end)
{
    ExpressCore &ex = express[c];
    if (!ex.active)
        return;
    const std::uint64_t j = feed->cursorAtCycle(c, ex.cursor, ex.baseCumA,
                                                ex.baseReady, end);
    if (j > ex.cursor) {
        refsProcessed += j - ex.cursor;
        feedReplayed += j - ex.cursor;
        cores[c]->retire(feed->cumIIncl(c, j - 1) - ex.baseCumI);
        ex.baseReady += feed->cumAIncl(c, j - 1) - ex.baseCumA;
        ex.baseCumA = feed->cumAIncl(c, j - 1);
        ex.baseCumI = feed->cumIIncl(c, j - 1);
        ex.cursor = j;
        replays[c]->cursor = j;
        cores[c]->setReadyAt(ex.baseReady);
    }
    if (ex.exactCursor != ex.cursor) {
        feed->materializeHier(c, ex.cursor, cores[c]->priv());
        ex.exactCursor = ex.cursor;
    }
    ex.active = false;
}

void
Cmp::stepCore(Core &core)
{
    if (feed) {
        stepCoreFanout(core);
        return;
    }
    const MemRef ref = core.nextRef();
    const Cycle issue = core.readyAt() + ref.think;
    const Addr line = lineAlign(ref.addr);

    const PrivateMissAction act =
        core.priv().classify(line, ref.op, ref.isInstr);

    Cycle done;
    if (!act.needLlc) {
        done = issue + act.latency;
    } else {
        const Cycle llc_issue = issue + act.latency;
        const Cycle bank_start = xbar.requestSlot(line, llc_issue);
        LlcRequest lreq{line, core.id(), act.event, bank_start};
        lreq.pc = ref.pc;
        const LlcResponse resp = llcPtr->request(lreq);
        if (resp.memFetched)
            xbar.noteMiss(line, bank_start, resp.doneAt);
        const Cycle returned = resp.doneAt + xbar.responseLatency();

        if (act.event == ProtoEvent::UPG) {
            core.priv().upgraded(line);
        } else {
            Addr evict_line = 0;
            bool evict_dirty = false;
            const bool writable = act.event == ProtoEvent::GETX;
            if (core.priv().fill(line, ref.isInstr, writable,
                                 evict_line, evict_dirty)) {
                llcPtr->evictNotify(evict_line, core.id(), evict_dirty,
                                    returned);
            }
        }
        done = returned;
        if (!prefetchers.empty() && !ref.isInstr &&
            act.event != ProtoEvent::UPG) {
            issuePrefetches(core, line, returned);
        }
    }

    core.retire(ref.think + (ref.isInstr ? 0 : 1));
    core.setReadyAt(done);
}

void
Cmp::run(Cycle cycles)
{
    runSlice(horizon + cycles, true);
}

void
Cmp::runSlice(Cycle end, bool commit)
{
    if (cores.empty()) {
        if (commit)
            horizon = end;
        return;
    }

    // Every core's (ready, index) key lives in one tournament tree
    // (sim/ready_tree.hh), rebuilt on entry (restore() may have moved
    // the cores) and updated on every write; stepCore only ever changes
    // the stepped core's ready time.
    const std::uint32_t n = static_cast<std::uint32_t>(cores.size());
    sched.reset(n, end);

    // Hook-free fast path: identical scheduling (first core carrying
    // the strictly smallest ready time wins), none of the per-reference
    // hook/abort/progress checks.  The winning core is stepped in a
    // burst for as long as it would keep winning — its key stays below
    // the runner-up's — so the tree walk amortizes over the burst and
    // the core's stream/private state stays hot.
    if (sampleEvery == 0 && checkEvery == 0 && snapEvery == 0 &&
        !abortPtr && !progressPtr) {
        // Arm express replay: a never-diverged fan-out core is
        // scheduled by the pre-step ready time of its next LLC-bound
        // record and jumps over everything in between (the skipped
        // records have no effect outside the core's own private state,
        // which nothing can observe before the commit at the end of
        // this run() call).
        const bool express_on = feed && expressEligible;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (express_on && !diverged[i].any) {
                express[i].active = true;
                refreshExpressEvent(i, end);
            } else {
                if (feed)
                    express[i].active = false;
                sched.set(i, cores[i]->readyAt());
            }
        }
        while (!sched.done()) {
            const std::uint32_t idx = sched.winner();
            if (express_on && express[idx].active) {
                expressEvent(idx, end);
                continue;
            }
            const ReadyTree::Key bound = sched.burstBound(idx);
            Core &burst = *cores[idx];
            expressDemoted = false;
            Cycle r;
            // A recall out of this burst may deactivate an express core
            // whose next step then lands before the cached bound;
            // expressDemoted ends the burst when that happens.
            do {
                stepCore(burst);
                ++refsProcessed;
                r = burst.readyAt();
            } while (sched.keyOf(idx, r) < bound && !expressDemoted);
            sched.set(idx, r);
        }
        if (feed && commit) {
            for (std::uint32_t i = 0; i < n; ++i)
                finalizeExpress(i, end);
        }
        if (commit)
            horizon = end;
        return;
    }

    if (feed) {
        // Hooked slices run the per-reference path; express laziness
        // never spans a hook installation (hooks are installed between
        // run() calls and the final slice of a run materializes).
        for (std::uint32_t i = 0; i < n; ++i) {
            RC_ASSERT(!express[i].active ||
                          express[i].exactCursor == express[i].cursor,
                      "hooked slice entered with lazy express state");
            express[i].active = false;
        }
    }
    for (std::uint32_t i = 0; i < n; ++i)
        sched.set(i, cores[i]->readyAt());

    while (!sched.done()) {
        const std::uint32_t idx = sched.winner();
        if (abortPtr && abortPtr->load(std::memory_order_relaxed)) {
            if (onAbort)
                onAbort(*this);
            throwSimError(SimError::Kind::Hang,
                          "watchdog abort: run made no forward progress "
                          "(aborted after %llu references)",
                          static_cast<unsigned long long>(refsProcessed));
        }
        // Fire every epoch boundary at or before the reference about to
        // be processed, so samples observe the quiescent pre-reference
        // state of their epoch even when a long stall skips several
        // boundaries at once.
        if (sampleEvery != 0) {
            const Cycle best = sched.minReady();
            while (sampleNext <= best) {
                sampleHook(*this, sampleNext);
                sampleNext += sampleEvery;
            }
        }
        Core &next = *cores[idx];
        stepCore(next);
        ++refsProcessed;
        sched.set(idx, next.readyAt());
        if (progressPtr)
            progressPtr->store(refsProcessed, std::memory_order_relaxed);
        if (checkEvery != 0 && refsProcessed % checkEvery == 0)
            checkHook(*this, next.readyAt());
        if (snapEvery != 0 && refsProcessed % snapEvery == 0)
            snapHook(*this, next.readyAt());
    }
    if (commit)
        horizon = end;
}

void
Cmp::setCheckHook(std::uint64_t every_n_refs,
                  std::function<void(const Cmp &, Cycle)> hook)
{
    checkEvery = hook ? every_n_refs : 0;
    checkHook = std::move(hook);
}

void
Cmp::setSnapshotHook(std::uint64_t every_n_refs,
                     std::function<void(const Cmp &, Cycle)> hook)
{
    snapEvery = hook ? every_n_refs : 0;
    snapHook = std::move(hook);
}

void
Cmp::setSampleHook(Cycle every_cycles,
                   std::function<void(const Cmp &, Cycle)> hook)
{
    sampleEvery = hook ? every_cycles : 0;
    sampleHook = std::move(hook);
    if (sampleEvery == 0) {
        sampleNext = 0;
        return;
    }
    // A restored checkpoint carries the next boundary; only a fresh
    // system (or a cadence change that left the boundary behind the
    // horizon) computes it from scratch.
    if (sampleNext <= horizon)
        sampleNext = (horizon / sampleEvery + 1) * sampleEvery;
}

void
Cmp::setProgressCounter(std::atomic<std::uint64_t> *counter)
{
    progressPtr = counter;
}

void
Cmp::setAbortFlag(const std::atomic<bool> *flag,
                  std::function<void(const Cmp &)> on_abort)
{
    abortPtr = flag;
    onAbort = std::move(on_abort);
}

void
Cmp::save(Serializer &s) const
{
    for (const ExpressCore &ex : express) {
        RC_ASSERT(!ex.active || ex.exactCursor == ex.cursor,
                  "checkpoint of a fan-out member with lazy express "
                  "state (save() is only quiescent at run boundaries "
                  "and hook points)");
    }
    s.beginSection("cmp");

    // Construction parameters: restore() validates these against its
    // own config instead of restoring them, so a checkpoint can never
    // be replayed into a differently-shaped system.
    s.beginSection("meta");
    s.putU32(cfg.numCores);
    s.putU8(static_cast<std::uint8_t>(cfg.llcKind));
    s.putU64(cfg.seed);
    s.putU32(cfg.capacityScale);
    s.putBool(cfg.prefetch.enable);
    s.endSection();

    s.beginSection("clock");
    s.putU64(horizon);
    s.putU64(refsProcessed);
    s.putU64(prefetchIssued);
    s.putU64(sampleNext);
    s.putU64(snapCycle);
    saveVec(s, snapInstr);
    saveVec(s, snapL1Miss);
    saveVec(s, snapL2Miss);
    saveVec(s, snapLlcMiss);
    s.endSection();

    s.beginSection("streams");
    for (const auto &stream : ownedStreams) {
        s.beginSection("stream");
        stream->save(s);
        s.endSection();
    }
    s.endSection();

    s.beginSection("cores");
    for (const auto &core : cores) {
        s.beginSection("core");
        core->save(s);
        s.endSection();
    }
    s.endSection();

    s.beginSection("llc");
    llcPtr->save(s);
    s.endSection();

    s.beginSection("mem");
    mem.save(s);
    s.endSection();

    s.beginSection("xbar");
    xbar.save(s);
    s.endSection();

    s.beginSection("prefetchers");
    s.putU64(prefetchers.size());
    for (const auto &pf : prefetchers)
        pf->save(s);
    s.endSection();

    s.endSection();
}

void
Cmp::restore(Deserializer &d)
{
    d.beginSection("cmp");

    d.beginSection("meta");
    const std::uint32_t ckCores = d.getU32();
    const auto ckKind = static_cast<LlcKind>(d.getU8());
    const std::uint64_t ckSeed = d.getU64();
    const std::uint32_t ckScale = d.getU32();
    const bool ckPrefetch = d.getBool();
    if (ckCores != cfg.numCores || ckKind != cfg.llcKind ||
        ckSeed != cfg.seed || ckScale != cfg.capacityScale ||
        ckPrefetch != cfg.prefetch.enable)
        throwSimError(SimError::Kind::Snapshot,
                      "checkpoint was taken under a different system "
                      "configuration (%u cores, llcKind %u, seed %llu, "
                      "scale %u, prefetch %d; this system: %u/%u/%llu/%u/%d)",
                      ckCores, static_cast<unsigned>(ckKind),
                      static_cast<unsigned long long>(ckSeed), ckScale,
                      ckPrefetch, cfg.numCores,
                      static_cast<unsigned>(cfg.llcKind),
                      static_cast<unsigned long long>(cfg.seed),
                      cfg.capacityScale, cfg.prefetch.enable);
    d.endSection();

    d.beginSection("clock");
    horizon = d.getU64();
    refsProcessed = d.getU64();
    prefetchIssued = d.getU64();
    sampleNext = d.getU64();
    snapCycle = d.getU64();
    restoreVec(d, snapInstr, "instruction snapshots");
    restoreVec(d, snapL1Miss, "L1-miss snapshots");
    restoreVec(d, snapL2Miss, "L2-miss snapshots");
    restoreVec(d, snapLlcMiss, "LLC-miss snapshots");
    d.endSection();

    d.beginSection("streams");
    for (const auto &stream : ownedStreams) {
        d.beginSection("stream");
        stream->restore(d);
        d.endSection();
    }
    d.endSection();

    d.beginSection("cores");
    for (const auto &core : cores) {
        d.beginSection("core");
        core->restore(d);
        d.endSection();
    }
    d.endSection();

    d.beginSection("llc");
    llcPtr->restore(d);
    d.endSection();

    d.beginSection("mem");
    mem.restore(d);
    d.endSection();

    d.beginSection("xbar");
    xbar.restore(d);
    d.endSection();

    d.beginSection("prefetchers");
    const std::uint64_t pfCount = d.getU64();
    if (pfCount != prefetchers.size())
        throwSimError(SimError::Kind::Snapshot,
                      "checkpoint carries %llu prefetcher(s), this system "
                      "has %zu", static_cast<unsigned long long>(pfCount),
                      prefetchers.size());
    for (const auto &pf : prefetchers)
        pf->restore(d);
    d.endSection();

    d.endSection();
}

Cycle
Cmp::maxCoreReadyAt() const
{
    Cycle latest = 0;
    for (const auto &c : cores)
        latest = std::max(latest, c->readyAt());
    return latest;
}

void
Cmp::beginMeasurement()
{
    snapCycle = horizon;
    for (CoreId i = 0; i < cores.size(); ++i) {
        snapInstr[i] = cores[i]->instructions();
        snapL1Miss[i] = cores[i]->priv().l1MissTotal();
        snapL2Miss[i] = cores[i]->priv().l2MissTotal();
        snapLlcMiss[i] = llcPtr->missesBy(i);
    }
}

std::uint64_t
Cmp::measuredInstructions(CoreId core) const
{
    return cores[core]->instructions() - snapInstr[core];
}

double
Cmp::ipc(CoreId core) const
{
    // The zero-measurement-window guard lives here (and only here):
    // aggregateIpc() and every harness consumer funnel through ipc(),
    // so callers never need their own window check.
    const Cycle c = measuredCycles();
    return c ? static_cast<double>(measuredInstructions(core)) /
                   static_cast<double>(c)
             : 0.0;
}

double
Cmp::aggregateIpc() const
{
    double sum = 0.0;
    for (CoreId i = 0; i < cores.size(); ++i)
        sum += ipc(i);
    return sum;
}

MpkiTriple
Cmp::measuredMpki(CoreId core) const
{
    MpkiTriple t;
    const double ki =
        static_cast<double>(measuredInstructions(core)) / 1000.0;
    if (ki <= 0.0)
        return t;
    t.l1 = static_cast<double>(cores[core]->priv().l1MissTotal() -
                               snapL1Miss[core]) / ki;
    t.l2 = static_cast<double>(cores[core]->priv().l2MissTotal() -
                               snapL2Miss[core]) / ki;
    t.llc = static_cast<double>(llcPtr->missesBy(core) -
                                snapLlcMiss[core]) / ki;
    return t;
}

bool
Cmp::recall(Addr line_addr, std::uint32_t core_mask)
{
    bool dirty = false;
    for (CoreId c = 0; c < cores.size(); ++c) {
        if (core_mask & (1u << c)) {
            // An express core's private state is stale; rebuild it at
            // its canonical position before consulting it.
            if (feed && express[c].active)
                materializeExpress(c, curKeyValid && curKeyIdx == c);
            dirty |= cores[c]->priv().invalidate(line_addr);
            // Recalls never reach the feed's recording hierarchies, so
            // the touched sets have diverged from them for good.
            if (feed)
                feedMarkLine(c, line_addr);
        }
    }
    return dirty;
}

bool
Cmp::downgrade(Addr line_addr, std::uint32_t core_mask)
{
    bool dirty = false;
    for (CoreId c = 0; c < cores.size(); ++c) {
        if (core_mask & (1u << c)) {
            if (feed && express[c].active)
                materializeExpress(c, curKeyValid && curKeyIdx == c);
            dirty |= cores[c]->priv().downgrade(line_addr);
            if (feed)
                feedMarkLine(c, line_addr);
        }
    }
    return dirty;
}

} // namespace rc
