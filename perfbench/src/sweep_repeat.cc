/**
 * @file
 * sweep-repeat: two back-to-back runConfigsOverMixes sweeps over one
 * heterogeneous mix set, with a feed cache in a fresh directory.
 *
 * Sweep A runs cold and captures each mix's front end (conv-8MB LRU and
 * five fully-associative reuse caches, carrying the paper's Fig. 8
 * reference points); sweep B replays it warm for six other back ends.
 * Each front end is paid once per mix while the SLLC back ends replay
 * it, so this stresses the fan-out lockstep scheduler, the back ends,
 * the task pool and feed capture/store/lookup/replay.
 *
 * Every cell is checked against an independent plain Cmp run of the
 * same (config, mix, seed); at the default seed also against the
 * recorded golden digest.  Each sweep starts from an empty in-process
 * run memo, so every timed cell is simulated, not served from a memo
 * entry of the other sweep.
 *
 * A known harness defect: the memo keys configs without the
 * reuse-predictor fields, so RC-4/1 and RC-4/1 + predictor share memo
 * entries.  After the timed sweeps, memoAliasProbe() asks for sweep A's
 * RC-4/1 cells while the memo still holds sweep B's RC-4/1 + predictor
 * cells, and reports every cell served wrong by name and as
 * harness.memo_alias_cells.  The probe is untimed and not one of the
 * workload's checked operations.
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include <sys/stat.h>

#include "arena/arena_registry.hh"
#include "harness.hh"
#include "reuse/reuse_cache.hh"
#include "sim/fanout.hh"
#include "sim/feed_cache.hh"
#include "workloads.hh"

namespace pb
{

using namespace rc;

namespace
{

constexpr std::uint32_t kScale = 8;
constexpr Cycle kWarmup = 300'000;
constexpr Cycle kMeasure = 1'200'000;
constexpr std::uint32_t kMixes = 4;
constexpr std::uint64_t kMixSeed = 7; //!< fig08_state_of_art's mix set
constexpr unsigned kRefSamples = 5; //!< reference runs per scale point

struct NamedCfg
{
    std::string name;
    SystemConfig cfg;
    double paper = 0.0; //!< Fig. 8 speedup over conv-8MB LRU; 0 = none
};

std::vector<NamedCfg>
sweepA(std::uint64_t seed)
{
    std::vector<NamedCfg> v = {
        {"conv-8MB", baselineSystem(kScale), 0.0},
        {"RC-8/4", reuseSystem(8, 4, 0, kScale), 1.056},
        {"RC-8/2", reuseSystem(8, 2, 0, kScale), 1.024},
        {"RC-8/1", reuseSystem(8, 1, 0, kScale), 0.0},
        {"RC-4/1", reuseSystem(4, 1, 0, kScale), 1.004},
        {"RC-4/0.5", reuseSystem(4, 0.5, 0, kScale), 0.974},
    };
    for (NamedCfg &c : v)
        c.cfg.seed = seed;
    return v;
}

std::vector<NamedCfg>
sweepB(std::uint64_t seed)
{
    SystemConfig pred = reuseSystem(4, 1, 0, kScale);
    pred.reuse.usePredictor = true;
    SystemConfig ship = baselineSystem(kScale);
    ship.conv.repl = arena::parsePolicyName("ship");
    SystemConfig redre = baselineSystem(kScale);
    redre.conv.repl = arena::parsePolicyName("redre");
    std::vector<NamedCfg> v = {
        {"DRRIP-8MB", conventionalSystem(8, ReplKind::DRRIP, kScale), 1.037},
        {"NRR-8MB", conventionalSystem(8, ReplKind::NRR, kScale), 1.037},
        {"NCID-8/4", ncidSystem(8, 4, kScale), 0.0},
        {"RC-4/1+predictor", pred, 0.0},
        {"conv-8MB-ship", ship, 0.0},
        {"conv-8MB-redre", redre, 0.0},
    };
    for (NamedCfg &c : v)
        c.cfg.seed = seed;
    return v;
}

std::vector<SystemConfig>
configsOf(const std::vector<NamedCfg> &v)
{
    std::vector<SystemConfig> out;
    for (const NamedCfg &c : v)
        out.push_back(c.cfg);
    return out;
}

/** Jobs for the sweeps: the load threads, kept a divisor of kMixes. */
std::uint32_t
sweepJobs()
{
    const unsigned t = loadThreads();
    return t >= 4 ? 4 : t >= 2 ? 2 : 1;
}

bench::RunOptions
sweepOptions(std::uint64_t seed, const std::string &feedDir)
{
    bench::RunOptions o;
    o.scale = kScale;
    o.warmup = kWarmup;
    o.measure = kMeasure;
    o.mixCount = kMixes;
    o.seed = seed;
    o.jobs = sweepJobs();
    o.feedCacheDir = feedDir;
    return o;
}

/** The harness's RunResult of a finished plain Cmp run. */
RunResult
collect(const Cmp &cmp)
{
    RunResult res;
    res.aggregateIpc = cmp.aggregateIpc();
    for (CoreId c = 0; c < cmp.numCores(); ++c) {
        res.coreIpc.push_back(cmp.ipc(c));
        res.mpki.push_back(cmp.measuredMpki(c));
    }
    const StatSet &llc = cmp.llc().stats();
    res.llcAccesses = llc.ref("accesses");
    if (const Counter *tagMisses = llc.tryRef("tagMisses"))
        res.llcMemFetches = *tagMisses;
    if (const auto *reuse = dynamic_cast<const ReuseCache *>(&cmp.llc()))
        res.fracNeverEnteredData = reuse->fractionNeverEnteredData();
    res.dramReads = cmp.memory().totalReads();
    return res;
}

} // namespace

RunResult
plainRun(const SystemConfig &cfg, const Mix &mix, std::uint64_t seed,
         std::uint32_t scale, Cycle warmup, Cycle measure,
         std::uint64_t *refs)
{
    SystemConfig c = cfg;
    c.seed = seed;
    Cmp sim(c, buildMixStreams(mix, seed, scale));
    sim.run(warmup);
    sim.beginMeasurement();
    sim.run(measure);
    if (refs)
        *refs = sim.referencesProcessed();
    return collect(sim);
}

namespace
{

/** Independent plain Cmp results (and reference counts) per cell. */
struct Oracle
{
    std::vector<std::vector<RunResult>> res; //!< [config][mix]
    std::vector<std::vector<std::uint64_t>> refs;
    std::uint64_t totalRefs = 0;
};

Oracle
plainOracle(const std::vector<NamedCfg> &cfgs, const std::vector<Mix> &mixes,
            std::uint64_t seed)
{
    Oracle o;
    o.res.assign(cfgs.size(), std::vector<RunResult>(mixes.size()));
    o.refs.assign(cfgs.size(), std::vector<std::uint64_t>(mixes.size(), 0));
    const std::size_t n = cfgs.size() * mixes.size();
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < loadThreads(); ++t) {
        pool.emplace_back([&] {
            for (std::size_t k; (k = next.fetch_add(1)) < n;) {
                const std::size_t i = k / mixes.size(), m = k % mixes.size();
                o.res[i][m] = plainRun(cfgs[i].cfg, mixes[m], seed, kScale,
                                       kWarmup, kMeasure, &o.refs[i][m]);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    for (const auto &row : o.refs)
        for (std::uint64_t r : row)
            o.totalRefs += r;
    return o;
}

/** Build (and drop) one sweep-A fan-out system per mix. */
void
constructSystems(const std::vector<SystemConfig> &cfgs,
                 const std::vector<Mix> &mixes, std::uint64_t seed)
{
    for (const Mix &mix : mixes) {
        FanoutCmp fan(cfgs, [&mix, seed] {
            return buildMixStreams(mix, seed, kScale);
        });
    }
}

/** Check one sweep's cells against the oracle and the goldens. */
void
checkSweep(Outcome &out, const char *sweep, const std::vector<NamedCfg> &cfgs,
           std::size_t cfgBase, const std::vector<std::vector<RunResult>> &got,
           const Oracle &oracle, const std::vector<Mix> &mixes,
           const Goldens *goldens)
{
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            const std::string name = std::string("sweep-repeat|") + sweep +
                                     "|" + cfgs[i].name + "|" +
                                     mixes[m].label();
            bool ok = runResultsEqual(got[i][m], oracle.res[cfgBase + i][m]);
            if (goldens) {
                const auto it = goldens->find(name);
                ok = ok && it != goldens->end() &&
                     it->second == hex16(runResultDigest(got[i][m]));
            }
            out.check(ok, name + " != plain Cmp run");
        }
    }
}

/** Mean |speedup over conv-8MB - paper| x 100 over the paper configs. */
double
paperError(const std::vector<NamedCfg> &a, const std::vector<NamedCfg> &b,
           const std::vector<std::vector<RunResult>> &ra,
           const std::vector<std::vector<RunResult>> &rb)
{
    double sum = 0.0;
    int n = 0;
    const auto add = [&](const NamedCfg &c,
                         const std::vector<RunResult> &res) {
        if (c.paper == 0.0)
            return;
        double mean = 0.0;
        for (std::size_t m = 0; m < res.size(); ++m)
            mean += bench::speedupRatio(res[m].aggregateIpc,
                                        ra[0][m].aggregateIpc);
        mean /= static_cast<double>(res.size());
        sum += std::abs(mean - c.paper);
        ++n;
    };
    for (std::size_t i = 0; i < a.size(); ++i)
        add(a[i], ra[i]);
    for (std::size_t i = 0; i < b.size(); ++i)
        add(b[i], rb[i]);
    return n ? 100.0 * sum / n : 0.0;
}

/** Everything one repetition measured. */
struct SweepRep
{
    double setupS = 0.0, aS = 0.0, bS = 0.0, cpuS = 0.0;
    double feedHitRatio = 0.0;
    std::vector<std::vector<RunResult>> ra, rb;
};

/** One repetition in the fresh scratch directory @p dir. */
SweepRep
sweepOnce(std::uint64_t seed, const std::vector<NamedCfg> &a,
          const std::vector<NamedCfg> &b, const std::vector<Mix> &mixes,
          const RepDir &dir, Tracer *tracer)
{
    SweepRep r;
    bench::clearBaselineMemoForTest();
    const bench::RunOptions opt = sweepOptions(seed, dir.file("feed"));
    const std::vector<SystemConfig> ca = configsOf(a), cb = configsOf(b);

    const std::uint64_t t0 = nowNs();
    std::shared_ptr<FeedCache> fc;
    {
        ScopedSpan s(tracer, "feed.open");
        fc = FeedCache::open(opt.feedCacheDir);
    }
    {
        ScopedSpan s(tracer, "sim.construct");
        constructSystems(ca, mixes, seed);
    }
    const std::uint64_t t1 = nowNs();
    const double cpu0 = processCpuSeconds();
    {
        ScopedSpan s(tracer, "harness.sweep_a");
        r.ra = bench::runConfigsOverMixes(ca, mixes, opt);
    }
    const std::uint64_t t2 = nowNs();
    {
        ScopedSpan s(tracer, "harness.sweep_b");
        bench::clearBaselineMemoForTest();
        r.rb = bench::runConfigsOverMixes(cb, mixes, opt);
    }
    const std::uint64_t t3 = nowNs();
    r.cpuS = processCpuSeconds() - cpu0;
    r.setupS = secondsBetween(t0, t1);
    r.aS = secondsBetween(t1, t2);
    r.bS = secondsBetween(t2, t3);
    const FeedCacheStats fs = fc->stats();
    r.feedHitRatio = fs.hits + fs.misses
                         ? static_cast<double>(fs.hits) /
                               static_cast<double>(fs.hits + fs.misses)
                         : 0.0;
    return r;
}

void
checkRep(Outcome &out, const SweepRep &r, const std::vector<NamedCfg> &a,
         const std::vector<NamedCfg> &b, const Oracle &oracle,
         const std::vector<Mix> &mixes, const Goldens *goldens)
{
    checkSweep(out, "A", a, 0, r.ra, oracle, mixes, goldens);
    checkSweep(out, "B", b, a.size(), r.rb, oracle, mixes, goldens);
}

/**
 * Sweep A's RC-4/1 cells asked of the harness right after a sweep B,
 * whose RC-4/1 + predictor cells share their memo keys.  Prints every
 * cell that differs from its plain Cmp run; @return how many differ.
 */
std::size_t
memoAliasProbe(std::uint64_t seed, const std::vector<NamedCfg> &a,
               const Oracle &oracle, const std::vector<Mix> &mixes)
{
    std::size_t i = 0;
    while (a[i].name != "RC-4/1")
        ++i;
    const RepDir dir("alias");
    const std::vector<std::vector<RunResult>> got =
        bench::runConfigsOverMixes({a[i].cfg}, mixes,
                                   sweepOptions(seed, dir.file("feed")));
    std::size_t wrong = 0;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        if (runResultsEqual(got[0][m], oracle.res[i][m]))
            continue;
        ++wrong;
        std::printf("known defect (run memo aliasing, not a checked "
                    "operation): sweep-repeat|memo-alias|RC-4/1|%s served "
                    "from the memo entry of RC-4/1+predictor\n",
                    mixes[m].label().c_str());
    }
    return wrong;
}

/** Oracle over sweep A's configs followed by sweep B's. */
Oracle
oracleFor(const std::vector<NamedCfg> &a, const std::vector<NamedCfg> &b,
          const std::vector<Mix> &mixes, std::uint64_t seed)
{
    std::vector<NamedCfg> all = a;
    all.insert(all.end(), b.begin(), b.end());
    return plainOracle(all, mixes, seed);
}

double
secondsOf(const std::function<void()> &fn)
{
    const std::uint64_t t0 = nowNs();
    fn();
    return secondsBetween(t0, nowNs());
}

void
runFan(FanoutCmp &fan)
{
    fan.run(kWarmup);
    fan.beginMeasurement();
    fan.run(kMeasure);
}

/** The fan-out and feed-cache probe on sweep A's first mix. */
void
fanoutProbe(std::uint64_t seed, const std::vector<NamedCfg> &a,
            const std::vector<Mix> &mixes, Tracer &tracer, Outcome &out)
{
    const Mix &mix = mixes.front();
    const std::vector<SystemConfig> cfgs = configsOf(a);
    const auto factory = [&mix, seed] {
        return buildMixStreams(mix, seed, kScale);
    };
    RepDir dir("fanprobe");
    const int root = tracer.open("fanout-probe");

    double nS = 0.0, oneS = 0.0, capS = 0.0, storeS = 0.0, lookupS = 0.0,
           warmS = 0.0;
    std::uint64_t replays = 0, refs = 0;
    {
        ScopedSpan s(&tracer, "sim.fanout_n");
        FanoutCmp fan(cfgs, factory);
        nS = secondsOf([&] { runFan(fan); });
        for (std::size_t j = 0; j < fan.size(); ++j) {
            replays += fan.member(j).feedReplays();
            refs += fan.member(j).referencesProcessed();
        }
    }
    {
        ScopedSpan s(&tracer, "sim.fanout_1");
        FanoutCmp fan({cfgs.front()}, factory);
        oneS = secondsOf([&] { runFan(fan); });
    }
    const FeedKey key = feedKeyOf(cfgs.front(), mix, seed, kScale, kWarmup,
                                  kMeasure);
    std::string blobPath;
    {
        FeedCache fc(dir.file("feed"));
        FanoutCmp cap(cfgs, factory, nullptr, /*capture=*/true);
        {
            ScopedSpan s(&tracer, "feed.capture");
            capS = secondsOf([&] { runFan(cap); });
        }
        ScopedSpan s(&tracer, "feed.store");
        storeS = secondsOf([&] { fc.store(key, cap.sharedFeed()); });
        blobPath = fc.blobPath(key.digest);
    }
    {
        FeedCache fc(dir.file("feed"));
        std::shared_ptr<const FeedBlob> blob;
        {
            ScopedSpan s(&tracer, "feed.lookup");
            lookupS = secondsOf([&] { blob = fc.lookup(key); });
        }
        out.check(blob != nullptr, "fanout-probe: feed lookup missed");
        if (blob) {
            ScopedSpan s(&tracer, "feed.warm");
            FanoutCmp warm(cfgs, factory, blob);
            warmS = secondsOf([&] { runFan(warm); });
        }
    }
    tracer.close(root);

    struct stat st;
    const double blobMb =
        ::stat(blobPath.c_str(), &st) == 0
            ? static_cast<double>(st.st_size) / (1024.0 * 1024.0) : 0.0;
    out.add("sim.fanout_member_s",
            (nS - oneS) / static_cast<double>(cfgs.size() - 1), "s");
    out.add("sim.replay_ratio",
            refs ? static_cast<double>(replays) / static_cast<double>(refs)
                 : 0.0,
            "ratio");
    out.add("feed.capture_ratio", capS / nS, "ratio");
    out.add("feed.warm_ratio", warmS > 0.0 ? nS / warmS : 0.0, "ratio");
    out.add("feed.store_s", storeS, "s");
    out.add("feed.lookup_s", lookupS, "s");
    out.add("feed.blob_mb", blobMb, "MB");
}

} // namespace

Outcome
runSweepRepeat(const RunArgs &args)
{
    Outcome out;
    const std::vector<NamedCfg> a = sweepA(args.seed), b = sweepB(args.seed);
    const std::vector<Mix> mixes = makeMixes(kMixes, 8, kMixSeed);
    const Oracle oracle = oracleFor(a, b, mixes, args.seed);
    const Goldens goldens = args.seed == kDefaultSeed
                                ? readGoldens(args.goldensPath) : Goldens{};
    const Goldens *g = args.seed == kDefaultSeed ? &goldens : nullptr;
    const double cells = static_cast<double>((a.size() + b.size()) *
                                             mixes.size());

    // Reference-second scaling (see referenceSeconds()): each repetition
    // by the mean of the reference runs just before and after it.
    std::vector<double> setupS, wallS, hostWallS;
    double paperErr = 0.0;
    const int reps = repeatFor(args.seconds, 2, [&](int rep) {
        const RepDir dir("sweep");
        const double ref0 = referenceSeconds(sweepJobs(), kRefSamples);
        const SweepRep r = sweepOnce(args.seed, a, b, mixes, dir, nullptr);
        const double scale =
            2.0 * kNominalRefS /
            (ref0 + referenceSeconds(sweepJobs(), kRefSamples));
        checkRep(out, r, a, b, oracle, mixes, g);
        setupS.push_back(r.setupS * scale);
        wallS.push_back((r.aS + r.bS) * scale);
        hostWallS.push_back(r.aS + r.bS);
        if (rep == 0)
            paperErr = paperError(a, b, r.ra, r.rb);
        return r.setupS + r.aS + r.bS;
    });
    memoAliasProbe(args.seed, a, oracle, mixes);

    std::printf("sweep-repeat: %d repetitions, %zu+%zu configs x %u mixes, "
                "%u jobs, windows %llu+%llu cycles\n", reps, a.size(),
                b.size(), kMixes, sweepJobs(),
                static_cast<unsigned long long>(kWarmup),
                static_cast<unsigned long long>(kMeasure));
    std::printf("paper_err_pct = %.3f %% (mean |speedup over conv-8MB - "
                "Fig. 8| over RC-8/4, RC-8/2, RC-4/1, RC-4/0.5, DRRIP-8MB, "
                "NRR-8MB)\n", paperErr);
    const double refs = static_cast<double>(oracle.totalRefs);
    out.add("setup_s", median(setupS), "s");
    out.add("refs_per_s", refs / median(wallS), "1/s");
    out.add("host_refs_per_s", refs / median(hostWallS), "1/s");
    out.add("req_per_s", cells / median(wallS), "1/s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    return out;
}

TraceWalls
traceSweepRepeat(const RunArgs &args, Tracer &tracer, Outcome &out)
{
    TraceWalls w;
    const std::vector<NamedCfg> a = sweepA(args.seed), b = sweepB(args.seed);
    const std::vector<Mix> mixes = makeMixes(kMixes, 8, kMixSeed);
    const Oracle oracle = oracleFor(a, b, mixes, args.seed);

    SweepRep u, t;
    {
        const RepDir dir("sweep");
        u = sweepOnce(args.seed, a, b, mixes, dir, nullptr);
    }
    w.untraced = u.setupS + u.aS + u.bS;
    checkRep(out, u, a, b, oracle, mixes, nullptr);

    {
        const RepDir dir("sweep");
        const int root = tracer.open("sweep-repeat");
        t = sweepOnce(args.seed, a, b, mixes, dir, &tracer);
        tracer.close(root);
        w.reconcileErr = reconcileError(tracer.spans(), root);
    }
    w.traced = t.setupS + t.aS + t.bS;
    checkRep(out, t, a, b, oracle, mixes, nullptr);

    const double jobs = static_cast<double>(sweepJobs());
    out.add("harness.cpu_util", t.cpuS / ((t.aS + t.bS) * jobs), "ratio");
    out.add("harness.sweep_a_s", t.aS, "s");
    out.add("harness.sweep_b_s", t.bS, "s");
    out.add("feed.hit_ratio", t.feedHitRatio, "ratio");
    out.add("harness.memo_alias_cells",
            static_cast<double>(memoAliasProbe(args.seed, a, oracle, mixes)),
            "count");
    fanoutProbe(args.seed, a, mixes, tracer, out);
    return w;
}

std::vector<std::pair<std::string, std::string>>
sweepGoldens(std::uint64_t seed)
{
    const std::vector<NamedCfg> a = sweepA(seed), b = sweepB(seed);
    const std::vector<Mix> mixes = makeMixes(kMixes, 8, kMixSeed);
    const Oracle oracle = oracleFor(a, b, mixes, seed);
    std::vector<std::pair<std::string, std::string>> g;
    for (std::size_t i = 0; i < a.size() + b.size(); ++i) {
        const bool inA = i < a.size();
        const NamedCfg &c = inA ? a[i] : b[i - a.size()];
        for (std::size_t m = 0; m < mixes.size(); ++m)
            g.emplace_back(std::string("sweep-repeat|") + (inA ? "A" : "B") +
                               "|" + c.name + "|" + mixes[m].label(),
                           hex16(runResultDigest(oracle.res[i][m])));
    }
    return g;
}

} // namespace pb
