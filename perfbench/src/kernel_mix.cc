/**
 * @file
 * kernel-mix: serial plain Cmp runs at one job, and the layer probe.
 *
 * Eight homogeneous 8-core mixes (micro_kernel's apps: SLLC-bound mcf,
 * lbm and libquantum next to private-bound namd and hmmer) each run once
 * on conv-8MB LRU and once on RC-4/1.  Fan-out, feed cache, harness and
 * service are all off, so the time is the front end plus one SLLC.
 *
 * The probe re-drives the same cells from the public classes, replaying
 * Cmp::runSlice's per-reference order (first core with the strictly
 * smallest ready time steps next) with Cmp::stepCore's call sequence:
 * RefStream::next, PrivateHierarchy::classify, Crossbar::requestSlot,
 * Sllc::request, Crossbar::noteMiss, fill/upgraded, Sllc::evictNotify.
 * Its LLC stats digest must equal Cmp's, or its times would describe a
 * different program.  A per-call clock read costs as much as the calls
 * it would time, so the probe records every call it makes instead, and
 * then replays each module's calls alone on a fresh instance of that
 * module, timed as one interval (the replayed private hierarchies and
 * SLLC must reach the probe's exact state).  What the module replays
 * leave of Cmp::run's own time is scheduling, core bookkeeping and the
 * cost of interleaving the modules: sim.sched_share.
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>

#include "cache/conventional_llc.hh"
#include "harness.hh"
#include "mem/memctrl.hh"
#include "ncid/ncid_cache.hh"
#include "reuse/reuse_cache.hh"
#include "sim/cmp.hh"
#include "sim/core.hh"
#include "sim/crossbar.hh"
#include "workloads.hh"

namespace pb
{

using namespace rc;

namespace
{

constexpr std::uint32_t kScale = 8;
constexpr Cycle kWarmup = 300'000;
constexpr Cycle kMeasure = 1'200'000;

/** Paper Fig. 8: RC-4/1 speedup over conv-8MB LRU. */
constexpr double kPaperRc41 = 1.004;

const char *const kApps[] = {
    "mcf", "libquantum", "gcc", "lbm", "omnetpp", "namd", "sphinx3",
    "hmmer",
};

struct Cell
{
    std::string name; //!< golden key
    SystemConfig cfg;
    Mix mix;
};

std::vector<Cell>
kernelCells(std::uint64_t seed)
{
    std::vector<Cell> cells;
    for (const char *app : kApps) {
        Mix mix;
        mix.apps.assign(8, app);
        SystemConfig conv = baselineSystem(kScale);
        SystemConfig rc41 = reuseSystem(4.0, 1.0, 0, kScale);
        conv.seed = rc41.seed = seed;
        cells.push_back({std::string("kernel-mix|conv-8MB|") + app, conv,
                         mix});
        cells.push_back({std::string("kernel-mix|RC-4/1|") + app, rc41,
                         mix});
    }
    return cells;
}

std::uint64_t
llcDigest(const Sllc &llc)
{
    std::ostringstream os;
    llc.stats().dumpJson(os);
    return fnv1a(os.str());
}

struct CellRun
{
    std::uint64_t digest = 0;
    std::uint64_t refs = 0;
    double setupS = 0.0;
    double runS = 0.0;
    double ipc = 0.0;
};

CellRun
runCell(const SystemConfig &cfg, const Mix &mix, std::uint64_t seed,
        Cycle warmup, Cycle measure)
{
    CellRun r;
    const std::uint64_t t0 = nowNs();
    Cmp sim(cfg, buildMixStreams(mix, seed, kScale));
    const std::uint64_t t1 = nowNs();
    sim.run(warmup);
    sim.beginMeasurement();
    sim.run(measure);
    const std::uint64_t t2 = nowNs();
    r.setupS = secondsBetween(t0, t1);
    r.runS = secondsBetween(t1, t2);
    r.refs = sim.referencesProcessed();
    r.digest = llcDigest(sim.llc());
    r.ipc = sim.aggregateIpc();
    return r;
}

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
    return nullptr;
}

/**
 * Host cost of one clock read, subtracted from individually timed calls:
 * a timed call's interval also spans one read's latency.
 */
std::uint64_t
clockReadNs()
{
    static const std::uint64_t cost = [] {
        std::vector<double> batches;
        for (int b = 0; b < 9; ++b) {
            const std::uint64_t t0 = nowNs();
            std::uint64_t last = t0;
            for (int i = 0; i < 1000; ++i)
                last = nowNs();
            batches.push_back(static_cast<double>(last - t0) / 1000.0);
        }
        return static_cast<std::uint64_t>(median(batches));
    }();
    return cost;
}

/** One call into a core's private hierarchy, as the probe made it. */
struct PrivOp
{
    enum Kind : std::uint8_t
    {
        Classify,
        Fill,
        Upgraded,
        Invalidate,
        Downgrade
    };
    Addr line;
    std::uint8_t core;
    Kind kind;
    std::uint8_t a; //!< Classify: MemOp; Fill: is_instr
    std::uint8_t b; //!< Classify: is_instr; Fill: writable
};

/** One Crossbar call: requestSlot(line, a) or noteMiss(line, a, b). */
struct XbarOp
{
    Addr line;
    Cycle a, b;
    bool miss;
};

/** One SLLC call: request(req), or evictNotify of req.lineAddr. */
struct LlcOp
{
    LlcRequest req;
    bool evict;
    bool dirty;
};

/** One scheduling decision: core idx stepped, then became ready. */
struct SchedOp
{
    std::uint32_t idx;
    Cycle ready;
};

/** One memory access the SLLC issued. */
struct MemOpRec
{
    Addr line;
    Cycle when;
    bool write;
};

/**
 * Every call the probe made into each module for one cell, in call
 * order (RefStream::next calls follow the scheduling decisions).
 */
struct Recording
{
    std::vector<PrivOp> priv;
    std::vector<XbarOp> xbar;
    std::vector<LlcOp> llc;
    std::vector<char> recallAnswers; //!< in call order
    std::vector<SchedOp> sched;
    std::vector<MemOpRec> mem;
};

/** Exact counts the probe accumulates over cells. */
struct ProbeCounts
{
    std::uint64_t refs = 0;
    std::uint64_t llcBound = 0;
    std::uint64_t convRequests = 0, convHits = 0;
    std::uint64_t rcRequests = 0, rcTagHits = 0, rcDataHits = 0;
    std::uint64_t memReads = 0, memWrites = 0;
};

/**
 * The probed system: the same parts Cmp wires together, driven from
 * here in Cmp::runSlice / Cmp::stepCore order.  It is the SLLC's
 * RecallHandler, exactly as Cmp is, and records every call it makes
 * into a module so each module's calls can be replayed on their own.
 */
class ProbeSystem : public RecallHandler
{
  public:
    /** @p rec_ is cleared and refilled; reusing one keeps capacity. */
    ProbeSystem(const SystemConfig &cfg_,
                std::vector<std::unique_ptr<RefStream>> streams_,
                Recording &rec_)
        : cfg(cfg_), streams(std::move(streams_)), mem(cfg.memory),
          xbar(cfg.xbar), llc(makeLlc(cfg, mem)), rec(rec_)
    {
        rec.priv.clear();
        rec.xbar.clear();
        rec.llc.clear();
        rec.recallAnswers.clear();
        rec.sched.clear();
        rec.mem.clear();
        for (CoreId i = 0; i < cfg.numCores; ++i)
            cores.push_back(
                std::make_unique<Core>(i, cfg.priv, *streams[i]));
        ready.assign(cfg.numCores, 0);
        llc->setRecallHandler(this);
    }

    ProbeSystem(const ProbeSystem &) = delete;
    ProbeSystem &operator=(const ProbeSystem &) = delete;

    bool recall(Addr line, std::uint32_t mask) override
    {
        return backInvalidate(line, mask, PrivOp::Invalidate);
    }

    bool downgrade(Addr line, std::uint32_t mask) override
    {
        return backInvalidate(line, mask, PrivOp::Downgrade);
    }

    /** Advance to absolute cycle @p end. */
    void runTo(Cycle end, ProbeCounts &st)
    {
        const std::uint32_t n = static_cast<std::uint32_t>(cores.size());
        for (;;) {
            std::uint32_t idx = 0;
            Cycle best = ready[0];
            for (std::uint32_t i = 1; i < n; ++i) {
                if (ready[i] < best) {
                    best = ready[i];
                    idx = i;
                }
            }
            if (best >= end)
                break;
            stepCore(idx, st);
            ready[idx] = cores[idx]->readyAt();
            rec.sched.push_back({idx, ready[idx]});
        }
    }

    const Sllc &sllc() const { return *llc; }
    const PrivateHierarchy &priv(CoreId c) const { return cores[c]->priv(); }
    const Recording &recording() const { return rec; }

  private:
    bool backInvalidate(Addr line, std::uint32_t mask, PrivOp::Kind kind)
    {
        bool dirty = false;
        for (CoreId c = 0; c < cores.size(); ++c) {
            if (mask & (1u << c)) {
                rec.priv.push_back(
                    {line, static_cast<std::uint8_t>(c), kind, 0, 0});
                dirty |= kind == PrivOp::Invalidate
                             ? cores[c]->priv().invalidate(line)
                             : cores[c]->priv().downgrade(line);
            }
        }
        rec.recallAnswers.push_back(dirty);
        return dirty;
    }

    void stepCore(std::uint32_t idx, ProbeCounts &st)
    {
        Core &core = *cores[idx];
        const auto c8 = static_cast<std::uint8_t>(idx);
        std::vector<PrivOp> &pops = rec.priv;
        ++st.refs;
        const MemRef ref = streams[idx]->next();
        const Cycle issue = core.readyAt() + ref.think;
        const Addr line = lineAlign(ref.addr);
        pops.push_back({line, c8, PrivOp::Classify,
                        static_cast<std::uint8_t>(ref.op), ref.isInstr});
        const PrivateMissAction act =
            core.priv().classify(line, ref.op, ref.isInstr);

        Cycle done;
        if (!act.needLlc) {
            done = issue + act.latency;
        } else {
            ++st.llcBound;
            const Cycle llcIssue = issue + act.latency;
            rec.xbar.push_back({line, llcIssue, 0, false});
            const Cycle bankStart = xbar.requestSlot(line, llcIssue);
            LlcRequest lreq{line, core.id(), act.event, bankStart};
            lreq.pc = ref.pc;
            rec.llc.push_back({lreq, false, false});
            const Counter r0 = mem.totalReads(), w0 = mem.totalWrites();
            const LlcResponse resp = llc->request(lreq);
            noteMem(line, bankStart, r0, w0, st);
            if (cfg.llcKind == LlcKind::Reuse) {
                ++st.rcRequests;
                st.rcTagHits += resp.tagHit;
                st.rcDataHits += resp.dataHit;
            } else if (cfg.llcKind == LlcKind::Conventional) {
                ++st.convRequests;
                st.convHits += resp.tagHit;
            }
            if (resp.memFetched) {
                rec.xbar.push_back({line, bankStart, resp.doneAt, true});
                xbar.noteMiss(line, bankStart, resp.doneAt);
            }
            const Cycle returned = resp.doneAt + xbar.responseLatency();
            if (act.event == ProtoEvent::UPG) {
                pops.push_back({line, c8, PrivOp::Upgraded, 0, 0});
                core.priv().upgraded(line);
            } else {
                Addr evictLine = 0;
                bool evictDirty = false;
                const bool writable = act.event == ProtoEvent::GETX;
                pops.push_back(
                    {line, c8, PrivOp::Fill, ref.isInstr, writable});
                if (core.priv().fill(line, ref.isInstr, writable, evictLine,
                                     evictDirty)) {
                    LlcRequest ev{evictLine, core.id(), ProtoEvent::PUTS,
                                  returned};
                    rec.llc.push_back({ev, true, evictDirty});
                    const Counter er = mem.totalReads();
                    const Counter ew = mem.totalWrites();
                    llc->evictNotify(evictLine, core.id(), evictDirty,
                                     returned);
                    noteMem(evictLine, returned, er, ew, st);
                }
            }
            done = returned;
        }
        core.retire(ref.think + (ref.isInstr ? 0 : 1));
        core.setReadyAt(done);
    }

    /** Log the memory traffic one SLLC call generated. */
    void noteMem(Addr line, Cycle when, Counter r0, Counter w0,
                 ProbeCounts &st)
    {
        for (Counter r = mem.totalReads(); r0 < r; ++r0, ++st.memReads)
            rec.mem.push_back({line, when, false});
        for (Counter w = mem.totalWrites(); w0 < w; ++w0, ++st.memWrites)
            rec.mem.push_back({line, when, true});
    }

    SystemConfig cfg;
    std::vector<std::unique_ptr<RefStream>> streams;
    MemCtrl mem;
    Crossbar xbar;
    std::unique_ptr<Sllc> llc;
    std::vector<std::unique_ptr<Core>> cores;
    std::vector<Cycle> ready;
    Recording &rec;
};

/** Answers replayed back-invalidations with the recorded results. */
class RecordedRecalls : public RecallHandler
{
  public:
    explicit RecordedRecalls(const std::vector<char> &a) : answers(a) {}
    bool recall(Addr, std::uint32_t) override { return answers.at(pos++); }
    bool downgrade(Addr, std::uint32_t) override
    {
        return answers.at(pos++);
    }

  private:
    const std::vector<char> &answers;
    std::size_t pos = 0;
};

/** Keep @p v alive so a replayed call is not optimized away. */
template <class T>
void
keep(const T &v)
{
    asm volatile("" : : "g"(v) : "memory");
}

/** Host seconds of each module's replay, summed over cells. */
struct ReplayTimes
{
    double next = 0.0, priv = 0.0, xbar = 0.0, llc = 0.0, evict = 0.0,
           mem = 0.0, sched = 0.0;
    std::uint64_t requests = 0, evicts = 0, memOps = 0;

    /** Module time, the SLLC counted once (it includes its memory). */
    double modules() const { return next + priv + xbar + llc; }
};

/**
 * Replay each module's recorded calls on a fresh instance of it, each
 * module timed as one interval under a span named after it.  The
 * replayed private hierarchies and SLLC must end in the probe's exact
 * state (stats dumps), which @p out checks.
 */
void
replayModules(const SystemConfig &cfg, const Mix &mix, std::uint64_t seed,
              const ProbeSystem &probe, Tracer &tracer, Outcome &out,
              const std::string &cell, ReplayTimes &t)
{
    const Recording &rec = probe.recording();
    const auto timed = [&tracer](const char *name, auto &&fn) {
        ScopedSpan s(&tracer, name);
        const std::uint64_t a = nowNs();
        fn();
        return secondsBetween(a, nowNs());
    };

    std::vector<std::unique_ptr<RefStream>> streams =
        buildMixStreams(mix, seed, kScale);
    t.next += timed("workloads.next", [&] {
        for (const SchedOp &op : rec.sched)
            keep(streams[op.idx]->next().addr);
    });

    std::vector<std::unique_ptr<PrivateHierarchy>> privs;
    for (CoreId c = 0; c < cfg.numCores; ++c)
        privs.push_back(std::make_unique<PrivateHierarchy>(
            cfg.priv, c, "core" + std::to_string(c)));
    t.priv += timed("cache.private", [&] {
        Addr el = 0;
        bool ed = false;
        for (const PrivOp &op : rec.priv) {
            PrivateHierarchy &h = *privs[op.core];
            switch (op.kind) {
              case PrivOp::Classify:
                keep(h.classify(op.line, static_cast<MemOp>(op.a), op.b)
                         .latency);
                break;
              case PrivOp::Fill:
                keep(h.fill(op.line, op.a, op.b, el, ed));
                break;
              case PrivOp::Upgraded:
                h.upgraded(op.line);
                break;
              case PrivOp::Invalidate:
                keep(h.invalidate(op.line));
                break;
              case PrivOp::Downgrade:
                keep(h.downgrade(op.line));
                break;
            }
        }
    });
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        std::ostringstream a, b;
        privs[c]->stats().dumpJson(a);
        probe.priv(c).stats().dumpJson(b);
        out.check(a.str() == b.str(),
                  cell + " private replay != probe, core " +
                      std::to_string(c));
    }

    Crossbar xbar(cfg.xbar);
    t.xbar += timed("sim.xbar", [&] {
        for (const XbarOp &op : rec.xbar) {
            if (op.miss)
                xbar.noteMiss(op.line, op.a, op.b);
            else
                keep(xbar.requestSlot(op.line, op.a));
        }
    });

    MemCtrl mem(cfg.memory);
    std::unique_ptr<Sllc> llc = makeLlc(cfg, mem);
    RecordedRecalls answers(rec.recallAnswers);
    llc->setRecallHandler(&answers);
    const std::uint64_t clock = clockReadNs();
    std::uint64_t evictNs = 0;
    const char *llcName = cfg.llcKind == LlcKind::Reuse ? "reuse.replay"
                          : cfg.llcKind == LlcKind::Conventional
                              ? "cache.conv_replay"
                              : "ncid.replay";
    t.llc += timed(llcName, [&] {
        for (const LlcOp &op : rec.llc) {
            if (!op.evict) {
                keep(llc->request(op.req).doneAt);
                ++t.requests;
                continue;
            }
            const std::uint64_t a = nowNs();
            llc->evictNotify(op.req.lineAddr, op.req.core, op.dirty,
                             op.req.now);
            const std::uint64_t d = nowNs() - a;
            evictNs += d > clock ? d - clock : 0;
            ++t.evicts;
        }
    });
    t.evict += static_cast<double>(evictNs) * 1e-9;
    out.check(llcDigest(*llc) == llcDigest(probe.sllc()),
              cell + " SLLC replay != probe");

    MemCtrl fresh(cfg.memory, "replay");
    t.mem += timed("mem.replay", [&] {
        for (const MemOpRec &op : rec.mem) {
            if (op.write)
                fresh.writeLine(op.line, op.when);
            else
                keep(fresh.readLine(op.line, op.when));
        }
    });
    t.memOps += rec.mem.size();

    std::vector<Cycle> ready(cfg.numCores, 0);
    t.sched += timed("sim.sched", [&] {
        const std::uint32_t n = cfg.numCores;
        for (const SchedOp &op : rec.sched) {
            std::uint32_t idx = 0;
            Cycle best = ready[0];
            for (std::uint32_t i = 1; i < n; ++i) {
                if (ready[i] < best) {
                    best = ready[i];
                    idx = i;
                }
            }
            keep(idx);
            ready[op.idx] = op.ready;
        }
    });
}

double
ratio(std::uint64_t a, std::uint64_t b)
{
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

} // namespace

std::uint64_t
cmpDigest(const SystemConfig &cfg, const Mix &mix, std::uint64_t seed,
          Cycle warmup, Cycle measure)
{
    SystemConfig c = cfg;
    c.seed = seed;
    return runCell(c, mix, seed, warmup, measure).digest;
}

std::uint64_t
probeDigest(const SystemConfig &cfg, const Mix &mix, std::uint64_t seed,
            Cycle warmup, Cycle measure)
{
    SystemConfig c = cfg;
    c.seed = seed;
    ProbeCounts st;
    Recording rec;
    ProbeSystem sys(c, buildMixStreams(mix, seed, kScale), rec);
    sys.runTo(warmup, st);
    sys.runTo(warmup + measure, st);
    return llcDigest(sys.sllc());
}

std::vector<std::pair<std::string, std::string>>
kernelGoldens(std::uint64_t seed)
{
    std::vector<std::pair<std::string, std::string>> g;
    for (const Cell &c : kernelCells(seed))
        g.emplace_back(
            c.name,
            hex16(runCell(c.cfg, c.mix, seed, kWarmup, kMeasure).digest));
    return g;
}

Outcome
runKernelMix(const RunArgs &args)
{
    Outcome out;
    const std::vector<Cell> cells = kernelCells(args.seed);
    const bool golden = args.seed == kDefaultSeed;
    const Goldens goldens =
        golden ? readGoldens(args.goldensPath) : Goldens{};
    // Per cell: its digest, IPC and references (identical every
    // repetition) and the setup / run seconds of every repetition.
    std::vector<CellRun> first(cells.size());
    // Reference-second scaling of each sample (see referenceSeconds()).
    std::vector<std::vector<double>> setupS(cells.size()),
        runS(cells.size()), hostRunS(cells.size());

    const int reps = repeatFor(args.seconds, 2, [&](int rep) {
        bench::clearBaselineMemoForTest();
        double spent = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            const double scale = kNominalRefS / referenceSeconds();
            const CellRun r = runCell(c.cfg, c.mix, args.seed, kWarmup,
                                      kMeasure);
            setupS[i].push_back(r.setupS * scale);
            runS[i].push_back(r.runS * scale);
            hostRunS[i].push_back(r.runS);
            spent += r.setupS + r.runS;
            if (rep == 0)
                first[i] = r;
            if (golden) {
                const auto it = goldens.find(c.name);
                out.check(it != goldens.end() &&
                              it->second == hex16(r.digest),
                          c.name + " != golden");
            } else {
                out.check(r.digest == first[i].digest &&
                              r.refs == first[i].refs,
                          c.name + " not repeatable");
            }
        }
        return spent;
    });

    // Medians per cell, summed over cells: one slow repetition of a
    // noisy host moves a few cells' samples, not the whole figure.
    double setup = 0.0, run = 0.0, hostRun = 0.0, errSum = 0.0;
    std::uint64_t refs = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        setup += median(setupS[i]);
        run += median(runS[i]);
        hostRun += median(hostRunS[i]);
        refs += first[i].refs;
        // Cells alternate conv-8MB, RC-4/1 per mix.
        if (i % 2 == 1)
            errSum += std::abs(
                bench::speedupRatio(first[i].ipc, first[i - 1].ipc) -
                kPaperRc41);
    }
    std::printf("kernel-mix: %d repetitions of %zu cells, windows %llu+%llu "
                "cycles, %llu refs per repetition\n", reps, cells.size(),
                static_cast<unsigned long long>(kWarmup),
                static_cast<unsigned long long>(kMeasure),
                static_cast<unsigned long long>(refs));
    std::printf("paper_err_pct = %.3f %% (RC-4/1 over conv-8MB vs Fig. 8's "
                "%.3f, mean over the 8 mixes)\n",
                100.0 * errSum / static_cast<double>(cells.size() / 2),
                kPaperRc41);
    out.add("setup_s", setup, "s");
    out.add("refs_per_s", static_cast<double>(refs) / run, "1/s");
    out.add("host_refs_per_s", static_cast<double>(refs) / hostRun, "1/s");
    out.add("req_per_s", static_cast<double>(cells.size()) / (setup + run),
            "1/s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    return out;
}

TraceWalls
traceKernelMix(const RunArgs &args, Tracer &tracer, Outcome &out)
{
    TraceWalls w;
    const std::vector<Cell> cells = kernelCells(args.seed);

    // Untraced reference: Cmp's digests and run time for the same cells.
    std::vector<std::uint64_t> digests;
    double cmpRunS = 0.0;
    for (const Cell &c : cells) {
        const CellRun r = runCell(c.cfg, c.mix, args.seed, kWarmup, kMeasure);
        digests.push_back(r.digest);
        cmpRunS += r.runS;
        w.untraced += r.setupS + r.runS;
    }

    ProbeCounts conv, reuse;
    ReplayTimes convT, reuseT;
    Recording rec;
    const int root = tracer.open("kernel-mix");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const bool isRc = c.cfg.llcKind == LlcKind::Reuse;
        ProbeCounts &st = isRc ? reuse : conv;
        const std::uint64_t t0 = nowNs();
        std::vector<std::unique_ptr<RefStream>> streams;
        {
            ScopedSpan s(&tracer, "workloads.build");
            streams = buildMixStreams(c.mix, args.seed, kScale);
        }
        std::unique_ptr<ProbeSystem> sys;
        {
            ScopedSpan s(&tracer, "sim.construct");
            sys = std::make_unique<ProbeSystem>(c.cfg, std::move(streams),
                                                rec);
        }
        {
            ScopedSpan s(&tracer, "sim.probe");
            sys->runTo(kWarmup, st);
            sys->runTo(kWarmup + kMeasure, st);
        }
        w.traced += secondsBetween(t0, nowNs());
        out.check(llcDigest(sys->sllc()) == digests[i],
                  c.name + " probe digest != Cmp digest");
        replayModules(c.cfg, c.mix, args.seed, *sys, tracer, out, c.name,
                      isRc ? reuseT : convT);
    }
    tracer.close(root);

    w.reconcileErr = reconcileError(tracer.spans(), root);

    // What the module replays leave of Cmp's own run time is scheduling,
    // core bookkeeping and the cost of interleaving the modules, which
    // sim.sched_share reports (the scheduler replay alone is printed).
    const double modules = convT.modules() + reuseT.modules();
    const double sched = convT.sched + reuseT.sched;
    std::printf("kernel-mix: Cmp::run %.3f s; module replays %.3f s "
                "(next %.3f, private %.3f, xbar %.3f, SLLC %.3f incl. "
                "memory %.3f), scheduler replay %.3f s\n",
                cmpRunS, modules, convT.next + reuseT.next,
                convT.priv + reuseT.priv, convT.xbar + reuseT.xbar,
                convT.llc + reuseT.llc, convT.mem + reuseT.mem, sched);

    const std::uint64_t refs = conv.refs + reuse.refs;
    const std::uint64_t bound = conv.llcBound + reuse.llcBound;
    constexpr double kNs = 1e9;
    out.add("workloads.next_ns",
            kNs * (convT.next + reuseT.next) / double(refs), "ns");
    out.add("cache.classify_ns",
            kNs * (convT.priv + reuseT.priv) / double(refs), "ns");
    out.add("cache.llc_bound_ratio", ratio(bound, refs), "ratio");
    out.add("cache.conv_request_ns",
            kNs * (convT.llc - convT.evict) / double(convT.requests), "ns");
    out.add("cache.conv_hit_ratio", ratio(conv.convHits, conv.convRequests),
            "ratio");
    out.add("reuse.request_ns",
            kNs * (reuseT.llc - reuseT.evict) / double(reuseT.requests),
            "ns");
    out.add("reuse.evict_notify_ns",
            kNs * reuseT.evict / double(reuseT.evicts), "ns");
    out.add("reuse.tag_hit_ratio", ratio(reuse.rcTagHits, reuse.rcRequests),
            "ratio");
    out.add("reuse.data_hit_ratio",
            ratio(reuse.rcDataHits, reuse.rcRequests), "ratio");
    out.add("mem.access_ns",
            kNs * (convT.mem + reuseT.mem) /
                double(convT.memOps + reuseT.memOps),
            "ns");
    out.add("mem.reads_per_kref",
            1000.0 * ratio(conv.memReads + reuse.memReads, refs), "1/kref");
    out.add("mem.writes_per_kref",
            1000.0 * ratio(conv.memWrites + reuse.memWrites, refs),
            "1/kref");
    out.add("sim.xbar_ns", kNs * (convT.xbar + reuseT.xbar) / double(bound),
            "ns");
    out.add("sim.sched_share", 1.0 - modules / cmpRunS, "ratio");
    return w;
}

} // namespace pb
