/**
 * @file
 * Kernel micro-benchmark: serial hot-loop throughput on a
 * table5_mpki-shaped workload (homogeneous 8-core mixes on the 8 MB LRU
 * baseline), bypassing the sweep machinery so the number isolates the
 * simulation kernel itself: reference generation, private lookups, SLLC
 * dispatch and the DRAM model.
 *
 * Writes BENCH_kernel.json:
 *   serial_sims_per_sec   completed runs / simulated wall seconds
 *   accesses_per_sec      completed core references / simulated seconds
 *   phases                per-phase wall-second breakdown (build,
 *                         warmup, measure), mirrored on the EventTracer
 *                         host track ("kernel.build" / "kernel.warmup" /
 *                         "kernel.measure")
 *   stats_digest          FNV-1a over every run's full LLC stats JSON —
 *                         identical across kernel refactors iff the
 *                         stats are bit-identical
 *
 * A second measurement covers the single-pass fan-out path: the
 * paper's headline reuse-cache sweep (six sizing/policy variants that
 * share the private hierarchy) runs once as six independent Cmp runs
 * and once as one FanoutCmp, hard-asserting per-config LLC stats
 * digests match before reporting:
 *   independent_sims_per_sec  six configs, one Cmp each
 *   fanout_sims_per_sec       six configs, one shared front end
 *   fanout_speedup            ratio of the two
 *
 * A third measurement covers the persistent feed cache: the same sweep
 * runs once cold (front end simulated in capture mode, blob stored)
 * and once warm (front end replayed zero-copy from the mapped blob),
 * both digest-checked against the independent pass.  Both ratios use
 * the plain fan-out pass as the denominator, so neither can look good
 * by making the other feed-cache path slow:
 *   feedcache_cold_sims_per_sec  simulate + capture + store
 *   feedcache_warm_sims_per_sec  lookup + replay (SLLC-only)
 *   feedcache_capture_ratio      (capture + store) wall / fan-out wall
 *   feedcache_warm_ratio         fan-out wall / warm wall
 *
 * Extra flags (on top of the common harness set):
 *   --baseline=FILE   prior BENCH_kernel.json to gate against
 *   --tolerance=F     allowed fractional drift vs baseline (default 0.20)
 *   --repeat=K        run every pass K times (default 1); each metric
 *                     reported (and gated) is the median of its K
 *                     values, and their min/max are printed beside it
 * With --baseline, exits 2 when serial, fan-out or warm feed-cache
 * sims/sec lands below its baseline * (1 - tolerance), when the warm
 * ratio lands below its baseline * (1 - tolerance), or when the capture
 * ratio rises above its baseline * (1 + tolerance); CI points this at
 * the repo-recorded record so kernel regressions fail the perf-smoke
 * job.  Fields missing from the baseline file are not gated.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include "cache/replacement.hh"
#include "common/log.hh"
#include "harness.hh"
#include "sim/cmp.hh"
#include "sim/fanout.hh"
#include "sim/system_config.hh"
#include "telemetry/trace_event.hh"
#include "workloads/mixes.hh"

namespace
{

using namespace rc;

/** Homogeneous-mix applications; a spread of table5_mpki behaviors. */
const char *const kApps[] = {
    "mcf", "libquantum", "gcc", "lbm", "omnetpp", "namd", "sphinx3",
    "hmmer",
};

/** FNV-1a 64-bit. */
std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Throughput numbers recorded in a prior BENCH_kernel.json. */
struct BaselineRecord {
    double serialSimsPerSec = 0.0;
    double fanoutSimsPerSec = 0.0; ///< 0 when the record predates fan-out
    //! 0 when the record predates the feed cache (or these ratios)
    double feedWarmSimsPerSec = 0.0;
    double feedCaptureRatio = 0.0;
    double feedWarmRatio = 0.0;
};

BaselineRecord
readBaseline(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        rc::panic("cannot read baseline record '%s'", path.c_str());
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const auto field = [&](const char *key, bool required) {
        const std::size_t pos = text.find(key);
        if (pos == std::string::npos) {
            if (required)
                rc::panic("'%s' carries no %s field", path.c_str(), key);
            return 0.0;
        }
        return std::strtod(text.c_str() + pos + std::strlen(key),
                           nullptr);
    };
    BaselineRecord rec;
    rec.serialSimsPerSec = field("\"serial_sims_per_sec\":", true);
    rec.fanoutSimsPerSec = field("\"fanout_sims_per_sec\":", false);
    rec.feedWarmSimsPerSec =
        field("\"feedcache_warm_sims_per_sec\":", false);
    rec.feedCaptureRatio = field("\"feedcache_capture_ratio\":", false);
    rec.feedWarmRatio = field("\"feedcache_warm_ratio\":", false);
    return rec;
}

/** Remove the scratch feed-cache directory (known names only). */
void
removeFeedDir(const std::string &dir)
{
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return;
    while (struct dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name == "." || name == "..")
            continue;
        std::remove((dir + "/" + name).c_str());
    }
    ::closedir(d);
    ::rmdir(dir.c_str());
}

/**
 * The paper's headline sweep as fan-out members: six reuse-cache
 * sizing/policy variants over one private hierarchy.  Every entry
 * shares the front-end prefix (cores, L1/L2 geometry, seed, scale) so
 * one FanoutCmp can drive all six from a single classified stream.
 */
std::vector<rc::SystemConfig>
fanoutSweep(std::uint32_t scale, std::uint64_t seed)
{
    using namespace rc;
    // The paper's headline experiment (Fig. 4): hold the tag array at
    // full coverage and sweep the data array down from conventional
    // size, showing how little data capacity the reuse cache needs.
    // All six members share the identical private prefix, so one
    // front-end pass feeds the whole sweep.
    std::vector<SystemConfig> cfgs;
    cfgs.push_back(reuseSystem(8.0, 8.0, 16, scale));  // full-size data
    cfgs.push_back(reuseSystem(8.0, 4.0, 16, scale));  // 1/2 data
    cfgs.push_back(reuseSystem(8.0, 2.0, 16, scale));  // 1/4 data
    cfgs.push_back(reuseSystem(8.0, 1.0, 16, scale));  // 1/8 data
    cfgs.push_back(reuseSystem(8.0, 0.5, 16, scale));  // 1/16 data
    cfgs.push_back(reuseSystem(8.0, 0.25, 16, scale)); // 1/32 data
    for (SystemConfig &c : cfgs)
        c.seed = seed;
    return cfgs;
}

/** Wall seconds of every pass of one repeat, plus what they produced. */
struct PassTimes
{
    double build = 0.0, warmup = 0.0, measure = 0.0;
    double indep = 0.0, fan = 0.0, feedCold = 0.0, feedWarm = 0.0;
    std::uint64_t accesses = 0;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::size_t fanRuns = 0; //!< configs in the fan-out sweep
};

/** The reported metrics of one repeat, derived from its PassTimes. */
struct Metrics
{
    double simsPerSec = 0.0, accPerSec = 0.0;
    double indepSimsPerSec = 0.0, fanSimsPerSec = 0.0, fanSpeedup = 0.0;
    double feedColdSimsPerSec = 0.0, feedWarmSimsPerSec = 0.0;
    double feedCaptureRatio = 0.0, feedWarmRatio = 0.0;
};

/** @p n / @p sec, 0 for an empty interval. */
double
rate(double n, double sec)
{
    return sec > 0.0 ? n / sec : 0.0;
}

/** Run the serial, fan-out and feed-cache passes once. */
PassTimes
runPasses(const bench::RunOptions &opt, EventTracer &tracer)
{
    PassTimes t;
    for (const char *app : kApps) {
        Mix mix;
        for (int c = 0; c < 8; ++c)
            mix.apps.push_back(app);
        SystemConfig cfg = baselineSystem(opt.scale);
        cfg.seed = opt.seed;

        const std::uint64_t t0 = tracer.hostNowMicros();
        Cmp sim(cfg, buildMixStreams(mix, opt.seed, opt.scale));
        const std::uint64_t t1 = tracer.hostNowMicros();
        tracer.recordHost("kernel.build", 0, t1 - t0);
        sim.run(opt.warmup);
        const std::uint64_t t2 = tracer.hostNowMicros();
        tracer.recordHost("kernel.warmup", 0, t2 - t1);
        sim.beginMeasurement();
        sim.run(opt.measure);
        const std::uint64_t t3 = tracer.hostNowMicros();
        tracer.recordHost("kernel.measure", 0, t3 - t2);

        t.build += static_cast<double>(t1 - t0) * 1e-6;
        t.warmup += static_cast<double>(t2 - t1) * 1e-6;
        t.measure += static_cast<double>(t3 - t2) * 1e-6;
        t.accesses += sim.referencesProcessed();

        std::ostringstream os;
        sim.llc().stats().dumpJson(os);
        t.digest = fnv1a(os.str(), t.digest);
    }

    // --- Fan-out measurement: the six-config reuse sweep, first as six
    // independent Cmp runs, then as one FanoutCmp.  The fan-out pass
    // must be a pure speedup: per-config LLC stats are digested and
    // hard-checked against the independent pass before any number is
    // reported.
    Mix fanMix;
    for (int c = 0; c < 8; ++c)
        fanMix.apps.push_back(kApps[c]);
    const auto sweep = fanoutSweep(opt.scale, opt.seed);
    const std::size_t fanRuns = sweep.size();
    t.fanRuns = fanRuns;

    std::vector<std::uint64_t> indepDigests;
    for (const SystemConfig &cfg : sweep) {
        Cmp sim(cfg, buildMixStreams(fanMix, opt.seed, opt.scale));
        const std::uint64_t t0 = tracer.hostNowMicros();
        sim.run(opt.warmup);
        sim.beginMeasurement();
        sim.run(opt.measure);
        const std::uint64_t t1 = tracer.hostNowMicros();
        tracer.recordHost("kernel.fanout.independent", 0, t1 - t0);
        t.indep += static_cast<double>(t1 - t0) * 1e-6;
        std::ostringstream os;
        sim.llc().stats().dumpJson(os);
        indepDigests.push_back(fnv1a(os.str()));
    }

    FanoutCmp fan(sweep, [&fanMix, &opt] {
        return buildMixStreams(fanMix, opt.seed, opt.scale);
    });
    const std::uint64_t f0 = tracer.hostNowMicros();
    fan.run(opt.warmup);
    fan.beginMeasurement();
    fan.run(opt.measure);
    const std::uint64_t f1 = tracer.hostNowMicros();
    tracer.recordHost("kernel.fanout.lockstep", 0, f1 - f0);
    t.fan = static_cast<double>(f1 - f0) * 1e-6;

    for (std::size_t j = 0; j < fanRuns; ++j) {
        std::ostringstream os;
        fan.member(j).llc().stats().dumpJson(os);
        if (fnv1a(os.str()) != indepDigests[j])
            rc::panic("fan-out member %zu diverged from its independent "
                      "run; the speedup would be meaningless",
                      j);
    }

    // --- Feed-cache measurement: the identical sweep once more through
    // the persistent feed cache.  Cold pays the miss path in full
    // (front-end simulation streaming into a spill, then seal, fsync,
    // rename); warm pays the hit path (mmap + validation + SLLC-only
    // replay).  Both passes are digest-checked against the independent
    // runs, so both ratios are over bit-identical results.
    const std::string feedDir = "feedcache-kernel.tmp";
    removeFeedDir(feedDir); // stale leftovers of a killed run
    const auto sweepDigests = [&](FanoutCmp &f, const char *pass) {
        for (std::size_t j = 0; j < fanRuns; ++j) {
            std::ostringstream os;
            f.member(j).llc().stats().dumpJson(os);
            if (fnv1a(os.str()) != indepDigests[j])
                rc::panic("feed-cache %s member %zu diverged from its "
                          "independent run; the speedup would be "
                          "meaningless", pass, j);
        }
    };
    const FeedKey feedKey = feedKeyOf(sweep.front(), fanMix, opt.seed,
                                      opt.scale, opt.warmup, opt.measure);
    {
        const std::uint64_t c0 = tracer.hostNowMicros();
        auto fc = FeedCache::open(feedDir);
        if (fc->lookup(feedKey))
            rc::panic("feed-cache scratch dir '%s' was already warm",
                      feedDir.c_str());
        FanoutCmp cold(sweep,
                       [&fanMix, &opt] {
                           return buildMixStreams(fanMix, opt.seed,
                                                  opt.scale);
                       },
                       nullptr, /*capture=*/true, feedDir);
        cold.run(opt.warmup);
        cold.beginMeasurement();
        cold.run(opt.measure);
        fc->store(feedKey, cold.sharedFeed());
        const std::uint64_t c1 = tracer.hostNowMicros();
        tracer.recordHost("kernel.feedcache.cold", 0, c1 - c0);
        t.feedCold = static_cast<double>(c1 - c0) * 1e-6;
        sweepDigests(cold, "cold");
    }
    {
        const std::uint64_t w0 = tracer.hostNowMicros();
        auto fc = FeedCache::open(feedDir);
        const std::shared_ptr<const FeedBlob> blob = fc->lookup(feedKey);
        if (!blob)
            rc::panic("feed-cache warm lookup missed the blob the cold "
                      "pass just stored");
        FanoutCmp warm(sweep,
                       [&fanMix, &opt] {
                           return buildMixStreams(fanMix, opt.seed,
                                                  opt.scale);
                       },
                       blob);
        warm.run(opt.warmup);
        warm.beginMeasurement();
        warm.run(opt.measure);
        const std::uint64_t w1 = tracer.hostNowMicros();
        tracer.recordHost("kernel.feedcache.warm", 0, w1 - w0);
        t.feedWarm = static_cast<double>(w1 - w0) * 1e-6;
        sweepDigests(warm, "warm");
    }
    removeFeedDir(feedDir);
    return t;
}

Metrics
metricsOf(const PassTimes &t)
{
    const double runs = static_cast<double>(std::size(kApps));
    const double fanRuns = static_cast<double>(t.fanRuns);
    const double simSec = t.warmup + t.measure;
    Metrics m;
    m.simsPerSec = rate(runs, simSec);
    m.accPerSec = rate(static_cast<double>(t.accesses), simSec);
    m.indepSimsPerSec = rate(fanRuns, t.indep);
    m.fanSimsPerSec = rate(fanRuns, t.fan);
    m.fanSpeedup = t.fan > 0.0 ? t.indep / t.fan : 0.0;
    m.feedColdSimsPerSec = rate(fanRuns, t.feedCold);
    m.feedWarmSimsPerSec = rate(fanRuns, t.feedWarm);
    // Both feed-cache ratios use the plain fan-out pass of the same
    // repeat as the denominator.
    m.feedCaptureRatio = t.fan > 0.0 ? t.feedCold / t.fan : 0.0;
    m.feedWarmRatio = t.feedWarm > 0.0 ? t.fan / t.feedWarm : 0.0;
    return m;
}

/** Median of @p field over @p reps, printing the spread under @p name. */
template <typename T>
double
medianOf(const std::vector<T> &reps, double T::*field, const char *name)
{
    std::vector<double> v;
    for (const T &r : reps)
        v.push_back(r.*field);
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const double med = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    if (n > 1)
        std::printf("spread: %-28s median %.4f  min %.4f  max %.4f\n",
                    name, med, v.front(), v.back());
    return med;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rc;

    // Strip the bench-local flags before the common parser sees them.
    std::string baselinePath;
    double tolerance = 0.20;
    int repeat = 1;
    std::vector<char *> rest;
    for (int i = 0; i < argc; ++i) {
        if (std::strncmp(argv[i], "--baseline=", 11) == 0)
            baselinePath = argv[i] + 11;
        else if (std::strncmp(argv[i], "--tolerance=", 12) == 0)
            tolerance = std::strtod(argv[i] + 12, nullptr);
        else if (std::strncmp(argv[i], "--repeat=", 9) == 0)
            repeat = std::atoi(argv[i] + 9);
        else
            rest.push_back(argv[i]);
    }
    if (repeat < 1)
        rc::fatal("--repeat needs a positive count");

    const auto opt = bench::initBench(
        static_cast<int>(rest.size()), rest.data(),
        "Kernel throughput: serial sims/sec on the table5 workload",
        "hot-path changes keep stats bit-identical (stats_digest) while "
        "serial sims/sec tracks the BENCH_kernel.json trajectory");

    EventTracer tracer;
    std::vector<PassTimes> times;
    std::vector<Metrics> reps;
    for (int r = 0; r < repeat; ++r) {
        times.push_back(runPasses(opt, tracer));
        reps.push_back(metricsOf(times.back()));
        if (times.back().digest != times.front().digest)
            rc::panic("repeat %d produced different LLC stats than "
                      "repeat 0", r);
    }

    const std::size_t runs = std::size(kApps);
    const std::size_t fanRuns = times.front().fanRuns;
    const std::uint64_t accesses = times.front().accesses;
    const std::uint64_t digest = times.front().digest;
    const double simsPerSec =
        medianOf(reps, &Metrics::simsPerSec, "serial_sims_per_sec");
    const double accPerSec =
        medianOf(reps, &Metrics::accPerSec, "accesses_per_sec");
    const double indepSimsPerSec = medianOf(
        reps, &Metrics::indepSimsPerSec, "independent_sims_per_sec");
    const double fanSimsPerSec =
        medianOf(reps, &Metrics::fanSimsPerSec, "fanout_sims_per_sec");
    const double fanSpeedup =
        medianOf(reps, &Metrics::fanSpeedup, "fanout_speedup");
    const double feedColdSimsPerSec = medianOf(
        reps, &Metrics::feedColdSimsPerSec, "feedcache_cold_sims_per_sec");
    const double feedWarmSimsPerSec = medianOf(
        reps, &Metrics::feedWarmSimsPerSec, "feedcache_warm_sims_per_sec");
    const double feedCaptureRatio = medianOf(
        reps, &Metrics::feedCaptureRatio, "feedcache_capture_ratio");
    const double feedWarmRatio =
        medianOf(reps, &Metrics::feedWarmRatio, "feedcache_warm_ratio");
    const double buildSec = medianOf(times, &PassTimes::build, "build_s");
    const double warmupSec =
        medianOf(times, &PassTimes::warmup, "warmup_s");
    const double measureSec =
        medianOf(times, &PassTimes::measure, "measure_s");
    const double indepSec =
        medianOf(times, &PassTimes::indep, "independent_s");
    const double fanSec = medianOf(times, &PassTimes::fan, "fanout_s");
    const double feedColdSec =
        medianOf(times, &PassTimes::feedCold, "feedcache_cold_s");
    const double feedWarmSec =
        medianOf(times, &PassTimes::feedWarm, "feedcache_warm_s");

    char buf[2048];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"bench\": \"micro_kernel\",\n"
        "  \"runs\": %zu,\n"
        "  \"repeat\": %d,\n"
        "  \"warmup_cycles\": %" PRIu64 ",\n"
        "  \"measure_cycles\": %" PRIu64 ",\n"
        "  \"scale\": %u,\n"
        "  \"accesses\": %" PRIu64 ",\n"
        "  \"serial_sims_per_sec\": %.4f,\n"
        "  \"accesses_per_sec\": %.1f,\n"
        "  \"stats_digest\": \"%016" PRIx64 "\",\n"
        "  \"fanout_runs\": %zu,\n"
        "  \"independent_sims_per_sec\": %.4f,\n"
        "  \"fanout_sims_per_sec\": %.4f,\n"
        "  \"fanout_speedup\": %.3f,\n"
        "  \"feedcache_cold_sims_per_sec\": %.4f,\n"
        "  \"feedcache_warm_sims_per_sec\": %.4f,\n"
        "  \"feedcache_capture_ratio\": %.3f,\n"
        "  \"feedcache_warm_ratio\": %.3f,\n"
        "  \"phases\": {\n"
        "    \"build_seconds\": %.3f,\n"
        "    \"warmup_seconds\": %.3f,\n"
        "    \"measure_seconds\": %.3f,\n"
        "    \"independent_seconds\": %.3f,\n"
        "    \"fanout_seconds\": %.3f,\n"
        "    \"feedcache_cold_seconds\": %.3f,\n"
        "    \"feedcache_warm_seconds\": %.3f\n"
        "  }\n"
        "}\n",
        runs, repeat, static_cast<std::uint64_t>(opt.warmup),
        static_cast<std::uint64_t>(opt.measure), opt.scale, accesses,
        simsPerSec, accPerSec, digest, fanRuns, indepSimsPerSec,
        fanSimsPerSec, fanSpeedup, feedColdSimsPerSec,
        feedWarmSimsPerSec, feedCaptureRatio, feedWarmRatio, buildSec,
        warmupSec, measureSec, indepSec, fanSec, feedColdSec, feedWarmSec);

    std::FILE *f = std::fopen("BENCH_kernel.json", "w");
    if (!f)
        rc::panic("cannot write BENCH_kernel.json");
    std::fwrite(buf, 1, std::strlen(buf), f);
    std::fclose(f);
    std::fputs(buf, stdout);

    if (!baselinePath.empty()) {
        const BaselineRecord base = readBaseline(baselinePath);
        bool failed = false;
        const auto gate = [&](const char *what, double measured,
                              double recorded) {
            if (recorded <= 0.0)
                return; // baseline predates this metric
            const double floor = recorded * (1.0 - tolerance);
            std::printf("gate: %s %.4f sims/sec vs baseline %.4f "
                        "(floor %.4f, tolerance %.0f%%)\n",
                        what, measured, recorded, floor,
                        tolerance * 100.0);
            if (measured < floor) {
                std::fprintf(stderr,
                             "FAIL: %s sims/sec regressed more than "
                             "%.0f%% below the recorded baseline\n",
                             what, tolerance * 100.0);
                failed = true;
            }
        };
        gate("serial", simsPerSec, base.serialSimsPerSec);
        gate("fanout", fanSimsPerSec, base.fanoutSimsPerSec);
        gate("feedcache warm", feedWarmSimsPerSec,
             base.feedWarmSimsPerSec);
        // The host-portable ratios gate too, both against plain
        // fan-out: capture drifting toward a slower path, or warm replay
        // drifting toward plain fan-out cost, is a feed-cache
        // regression even if absolute sims/sec kept up with a faster
        // machine.
        const auto ratioGate = [&](const char *what, double measured,
                                   double recorded, bool lowerIsBetter) {
            if (recorded <= 0.0)
                return; // baseline predates this metric
            const double bound = recorded * (lowerIsBetter
                                                 ? 1.0 + tolerance
                                                 : 1.0 - tolerance);
            std::printf("gate: %s %.3f vs baseline %.3f (%s %.3f, "
                        "tolerance %.0f%%)\n",
                        what, measured, recorded,
                        lowerIsBetter ? "ceiling" : "floor", bound,
                        tolerance * 100.0);
            if (lowerIsBetter ? measured > bound : measured < bound) {
                std::fprintf(stderr,
                             "FAIL: %s moved more than %.0f%% the wrong "
                             "way from the recorded baseline\n",
                             what, tolerance * 100.0);
                failed = true;
            }
        };
        ratioGate("feedcache_capture_ratio", feedCaptureRatio,
                  base.feedCaptureRatio, true);
        ratioGate("feedcache_warm_ratio", feedWarmRatio,
                  base.feedWarmRatio, false);
        if (failed)
            return 2;
    }
    return 0;
}
