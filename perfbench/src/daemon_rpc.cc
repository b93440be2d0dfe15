/**
 * @file
 * daemon-rpc: an in-process Daemon (two in-thread workers, no worker
 * isolation, no feed cache) on a Unix socket, driven by two RcClient
 * connections in a closed loop.
 *
 * Each client sends its next request only after the previous reply.  The
 * requests are drawn, in a seeded order, from kDistinct short-window
 * RunRequests, so about 5% are first seen in a repetition (simulate and
 * store in the result cache) and the rest are result-cache hits.  Every
 * repetition starts a fresh daemon on a fresh socket and an empty cache
 * directory.  Simulation is a small share here: the frame codec, the
 * socket, the job queue and the result-cache paths dominate.
 *
 * Every reply is compared bitwise with a bench::simulateRequest oracle
 * computed before any timing starts.
 */

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "harness.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/frame.hh"
#include "service/result_cache.hh"
#include "snapshot/serializer.hh"
#include "workloads.hh"

namespace pb
{

using namespace rc;

namespace
{

// Small caches and short windows keep a first-seen request's
// simulation close to the cost of the service path around it.
constexpr std::uint32_t kScale = 32;
constexpr Cycle kWarmup = 1'000;
constexpr Cycle kMeasure = 3'000;
constexpr std::uint32_t kMixes = 10;
//! Fixed mix set (fig08_state_of_art's); the seed drives the streams
//! and the request order, so runs at different seeds do equal work.
constexpr std::uint64_t kMixSeed = 7;
constexpr std::size_t kClients = 2;
constexpr std::size_t kPerClient = 400;
//! 40 distinct of 800 requests per repetition: ~5% first seen.
constexpr std::size_t kDistinct = 40;

std::uint64_t
splitmix(std::uint64_t &s)
{
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<svc::RunRequest>
distinctRequests(std::uint64_t seed)
{
    const std::vector<SystemConfig> cfgs = {
        baselineSystem(kScale),
        reuseSystem(4, 1, 0, kScale),
        reuseSystem(8, 4, 0, kScale),
        conventionalSystem(8, ReplKind::DRRIP, kScale),
    };
    std::vector<svc::RunRequest> reqs;
    for (const Mix &mix : makeMixes(kMixes, 8, kMixSeed)) {
        for (const SystemConfig &c : cfgs) {
            svc::RunRequest r;
            r.config = c;
            r.config.seed = seed;
            r.mix = mix;
            r.seed = seed;
            r.scale = kScale;
            r.warmup = kWarmup;
            r.measure = kMeasure;
            reqs.push_back(r);
        }
    }
    return reqs;
}

/** Each client's request order (indices into the distinct set). */
std::vector<std::vector<std::size_t>>
requestOrder(std::uint64_t seed)
{
    std::uint64_t s = seed * 0x2545f4914f6cdd1dull + 1;
    std::vector<std::vector<std::size_t>> order(kClients);
    for (auto &o : order)
        for (std::size_t j = 0; j < kPerClient; ++j)
            o.push_back(static_cast<std::size_t>(splitmix(s) % kDistinct));
    return order;
}

struct Oracle
{
    std::vector<svc::RunRequest> reqs;
    std::vector<RunResult> res;
    std::vector<double> directUs; //!< simulateRequest wall per request
    std::uint64_t refsPerRound = 0; //!< refs summed over one order pass
    std::vector<std::uint64_t> refs;
};

Oracle
makeOracle(std::uint64_t seed, Outcome &out)
{
    Oracle o;
    o.reqs = distinctRequests(seed);
    for (const svc::RunRequest &r : o.reqs) {
        const std::uint64_t t0 = nowNs();
        o.res.push_back(bench::simulateRequest(r));
        o.directUs.push_back(secondsBetween(t0, nowNs()) * 1e6);
        std::uint64_t refs = 0;
        const RunResult plain =
            plainRun(r.config, r.mix, seed, kScale, kWarmup, kMeasure, &refs);
        o.refs.push_back(refs);
        out.check(runResultsEqual(plain, o.res.back()),
                  "daemon-rpc: simulateRequest != plain Cmp run");
    }
    for (const auto &ord : requestOrder(seed))
        for (std::size_t i : ord)
            o.refsPerRound += o.refs[i];
    return o;
}

struct Sample
{
    double us = 0.0;
    bool cold = false;
    bool ok = false; //!< reply matched the oracle
};

struct DaemonRep
{
    double setupS = 0.0, runS = 0.0;
    std::vector<Sample> samples;
    svc::DaemonCounters counters;
};

svc::SimulateFn
simulateFn()
{
    return [](const svc::RunRequest &req, const std::atomic<bool> *abort,
              std::atomic<std::uint64_t> *heartbeat) {
        return bench::simulateRequest(req, abort, heartbeat);
    };
}

/** One repetition with a fresh daemon in the fresh directory @p dir. */
DaemonRep
daemonOnce(std::uint64_t seed, const Oracle &oracle, const RepDir &dir,
           Outcome &out, Tracer *tracer)
{
    DaemonRep rep;
    bench::clearBaselineMemoForTest();
    const auto order = requestOrder(seed);

    const std::uint64_t t0 = nowNs();
    svc::DaemonConfig dc;
    dc.socketPath = dir.file("s");
    dc.cacheDir = dir.file("rc");
    dc.workers = 2;
    std::unique_ptr<svc::Daemon> daemon;
    std::vector<std::unique_ptr<svc::RcClient>> clients;
    {
        ScopedSpan s(tracer, "service.start");
        daemon = std::make_unique<svc::Daemon>(dc, simulateFn());
        daemon->start();
        svc::ClientConfig cc;
        cc.socketPath = dc.socketPath;
        cc.seed = seed;
        for (std::size_t k = 0; k < kClients; ++k) {
            clients.push_back(std::make_unique<svc::RcClient>(cc));
            out.check(clients.back()->ping(), "daemon-rpc: client connect");
        }
    }
    const std::uint64_t t1 = nowNs();

    std::unique_ptr<std::atomic<bool>[]> seen(
        new std::atomic<bool>[kDistinct]);
    for (std::size_t i = 0; i < kDistinct; ++i)
        seen[i] = false;
    std::vector<std::vector<Sample>> samples(kClients);
    std::uint64_t t2 = 0, t3 = 0;
    {
        ScopedSpan s(tracer, "service.requests");
        t2 = nowNs();
        std::vector<std::thread> threads;
        for (std::size_t k = 0; k < kClients; ++k) {
            threads.emplace_back([&, k] {
                for (std::size_t idx : order[k]) {
                    const bool cold = !seen[idx].exchange(true);
                    const std::uint64_t a = nowNs();
                    bool ok = false;
                    try {
                        ok = runResultsEqual(
                            clients[k]->simulate(oracle.reqs[idx]),
                            oracle.res[idx]);
                    } catch (const std::exception &) {
                        ok = false;
                    }
                    samples[k].push_back(
                        {secondsBetween(a, nowNs()) * 1e6, cold, ok});
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        t3 = nowNs();
    }
    {
        ScopedSpan s(tracer, "service.stop");
        rep.counters = daemon->counters();
        clients.clear();
        daemon->stop();
        daemon.reset();
    }
    for (const std::vector<Sample> &client : samples) {
        for (const Sample &x : client)
            out.check(x.ok, "daemon-rpc: reply != simulateRequest oracle");
        rep.samples.insert(rep.samples.end(), client.begin(), client.end());
    }
    rep.setupS = secondsBetween(t0, t1);
    rep.runS = secondsBetween(t2, t3);
    return rep;
}

std::vector<double>
latencies(const std::vector<Sample> &s, int which)
{
    std::vector<double> v;
    for (const Sample &x : s)
        if (which < 0 || x.cold == (which == 1))
            v.push_back(x.us);
    return v;
}

/** Print a percentile with the one it fell back to and the count. */
void
reportPercentile(const char *name, const std::vector<double> &v, double want)
{
    double value = 0.0, used = 0.0;
    if (!supportedPercentile(v, want, value, used)) {
        std::printf("%s: not enough samples (n=%zu)\n", name, v.size());
        return;
    }
    std::printf("%s = %.1f us (p%g of n=%zu)\n", name, value, used, v.size());
}

/** Frame round trips over a socketpair: us per round trip. */
double
frameRttUs(const RunResult &res, Outcome &out)
{
    Serializer s;
    saveRunResult(s, res);
    const std::vector<std::uint8_t> payload = s.image();
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        out.check(false, "service-probe: socketpair");
        return 0.0;
    }
    constexpr int kTrips = 2000;
    bool ok = true;
    const std::uint64_t t0 = nowNs();
    for (int i = 0; i < kTrips && ok; ++i) {
        svc::Frame f, g;
        svc::writeFrame(fds[0], svc::MsgType::SimResult, payload);
        ok = svc::readFrame(fds[1], f);
        svc::writeFrame(fds[1], svc::MsgType::SimResult, f.payload);
        ok = ok && svc::readFrame(fds[0], g) && g.payload == payload;
    }
    const std::uint64_t t1 = nowNs();
    ::close(fds[0]);
    ::close(fds[1]);
    out.check(ok, "service-probe: frame round trip");
    return secondsBetween(t0, t1) * 1e6 / kTrips;
}

} // namespace

Outcome
runDaemonRpc(const RunArgs &args)
{
    Outcome out;
    const Oracle oracle = makeOracle(args.seed, out);
    std::vector<double> setupS, runS;
    std::vector<Sample> all;
    const double reqs = static_cast<double>(kClients * kPerClient);
    const int reps = repeatFor(args.seconds, 2, [&](int) {
        const RepDir dir("daemon");
        const DaemonRep r = daemonOnce(args.seed, oracle, dir, out, nullptr);
        setupS.push_back(r.setupS);
        runS.push_back(r.runS);
        all.insert(all.end(), r.samples.begin(), r.samples.end());
        return r.setupS + r.runS;
    });
    std::printf("daemon-rpc: %d repetitions of %zu clients x %zu requests "
                "over %zu distinct, windows %llu+%llu cycles\n", reps,
                kClients, kPerClient, kDistinct,
                static_cast<unsigned long long>(kWarmup),
                static_cast<unsigned long long>(kMeasure));
    reportPercentile("req_p50_us", latencies(all, -1), 50);
    reportPercentile("req_p99_us", latencies(all, -1), 99);
    reportPercentile("cold_p50_us", latencies(all, 1), 50);
    std::printf("direct simulateRequest p50 = %.1f us (n=%zu)\n",
                median(oracle.directUs), oracle.directUs.size());
    out.add("setup_s", median(setupS), "s");
    out.add("refs_per_s",
            static_cast<double>(oracle.refsPerRound) / median(runS), "1/s");
    out.add("req_per_s", reqs / median(runS), "1/s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    return out;
}

TraceWalls
traceDaemonRpc(const RunArgs &args, Tracer &tracer, Outcome &out)
{
    TraceWalls w;
    const Oracle oracle = makeOracle(args.seed, out);
    DaemonRep u, t;
    {
        const RepDir dir("daemon");
        u = daemonOnce(args.seed, oracle, dir, out, nullptr);
    }
    w.untraced = u.setupS + u.runS;
    {
        const RepDir dir("daemon");
        const int root = tracer.open("daemon-rpc");
        t = daemonOnce(args.seed, oracle, dir, out, &tracer);
        tracer.close(root);
        w.reconcileErr = reconcileError(tracer.spans(), root);
    }
    w.traced = t.setupS + t.runS;

    const double coldP50 = median(latencies(t.samples, 1));
    out.add("service.hit_us_p50", median(latencies(t.samples, 0)), "us");
    out.add("service.cold_overhead_us", coldP50 - median(oracle.directUs),
            "us");
    const std::uint64_t lookups =
        t.counters.cacheHits + t.counters.cacheMisses;
    out.add("service.cache_hit_ratio",
            lookups ? static_cast<double>(t.counters.cacheHits) /
                          static_cast<double>(lookups)
                    : 0.0,
            "ratio");
    out.add("service.sheds", static_cast<double>(t.counters.sheds), "count");

    const int probe = tracer.open("service-probe");
    {
        ScopedSpan s(&tracer, "service.frame_rtt");
        out.add("service.frame_rtt_us", frameRttUs(oracle.res.front(), out),
                "us");
    }
    {
        RepDir dir("resultcache");
        svc::ResultCache cache(dir.file("rc"));
        std::uint64_t storeNs = 0, lookupNs = 0;
        bool ok = true;
        {
            ScopedSpan s(&tracer, "service.result_store");
            for (std::size_t i = 0; i < oracle.reqs.size(); ++i) {
                const std::uint64_t a = nowNs();
                cache.store(oracle.reqs[i], oracle.res[i]);
                storeNs += nowNs() - a;
            }
        }
        {
            ScopedSpan s(&tracer, "service.result_lookup");
            for (std::size_t i = 0; i < oracle.reqs.size(); ++i) {
                RunResult got;
                const std::uint64_t a = nowNs();
                ok = cache.lookup(oracle.reqs[i], got) && ok &&
                     runResultsEqual(got, oracle.res[i]);
                lookupNs += nowNs() - a;
            }
        }
        out.check(ok, "service-probe: result cache round trip");
        const double n = static_cast<double>(oracle.reqs.size());
        out.add("service.result_store_us", storeNs * 1e-3 / n, "us");
        out.add("service.result_lookup_us", lookupNs * 1e-3 / n, "us");
    }
    tracer.close(probe);
    return w;
}

} // namespace pb
