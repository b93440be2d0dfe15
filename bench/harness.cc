#include "harness.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "arena/arena_registry.hh"
#include "common/log.hh"
#include "common/task_pool.hh"
#include "reuse/reuse_cache.hh"
#include "sim/fanout.hh"
#include "snapshot/journal.hh"
#include "snapshot/serializer.hh"
#include "telemetry/telemetry.hh"
#include "verify/fault_injector.hh"
#include "verify/integrity.hh"

namespace rc::bench
{

namespace
{

/**
 * Aggregate throughput of every forEachRun batch in this process, for
 * the BENCH_harness.json record written at exit.  cpuSeconds sums the
 * individual run durations (the serial-equivalent time); wallSeconds
 * sums the batch wall clocks, so cpu/wall is the realized speedup.
 */
struct PerfTotals
{
    std::mutex mu;
    std::string bench = "harness";
    std::uint64_t sims = 0;
    double cpuSeconds = 0.0;
    double wallSeconds = 0.0;
    std::uint32_t jobs = 1;
    std::uint64_t runsOk = 0;
    std::uint64_t runsRetried = 0;
    std::uint64_t runsQuarantined = 0;
    std::vector<RunOutcome> outcomes; //!< per-run records, batch order
};

/** Batch-local run index of the calling worker (npos outside a run). */
thread_local std::size_t tlsRunIndex = SIZE_MAX;

/** Attempt number of the calling worker's current run. */
thread_local std::uint32_t tlsAttempt = 0;

/** Watchdog wiring of the calling worker's run (null = no watchdog). */
thread_local std::atomic<std::uint64_t> *tlsHeartbeat = nullptr;
thread_local const std::atomic<bool> *tlsAbortFlag = nullptr;

/** Exit nonzero when quarantined runs remain (parseArgs guard). */
std::atomic<bool> exitOnQuarantineFlag{true};

/**
 * forEachRun call counter: a bench executes the same batch sequence on
 * every launch, so the pair (batch, run) names a run stably across
 * relaunches and the journal of a killed sweep maps onto the relaunch.
 */
std::atomic<std::uint64_t> sweepBatchCounter{0};

/** Batch index of the innermost active forEachRun (npos outside). */
std::atomic<std::uint64_t> activeBatch{UINT64_MAX};

/**
 * Per-run watchdog slot.  The worker publishes forward progress into
 * `beat` (wired into Cmp::setProgressCounter); the monitor thread sets
 * `abort` when the beat stalls past the timeout.  `epoch` increments at
 * every attempt start so a retry re-arms the monitor's stall timer.
 */
struct HeartbeatSlot
{
    std::atomic<std::uint64_t> beat{0};
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<bool> running{false};
    std::atomic<bool> abort{false};
};

/** True when @p path names an existing file. */
bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** mkdir that tolerates the directory already existing. */
void
ensureDir(const std::string &dir)
{
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        throwSimError(SimError::Kind::Snapshot,
                      "cannot create sweep directory '%s'", dir.c_str());
}

/** `<dir>/<stem>-b<batch>-r<run>.<ext>` for the named run. */
std::string
runFilePath(const std::string &dir, const char *stem, std::uint64_t batch,
            std::size_t run, const char *ext)
{
    char buf[96];
    if (run == SIZE_MAX)
        std::snprintf(buf, sizeof(buf), "/%s-solo.%s", stem, ext);
    else
        std::snprintf(buf, sizeof(buf), "/%s-b%llu-r%zu.%s", stem,
                      static_cast<unsigned long long>(batch), run, ext);
    return dir + buf;
}

// String escaping for the perf record comes from the shared JSON
// helper in common/stats.hh (rc::jsonEscape).

PerfTotals &
perfTotals()
{
    static PerfTotals t;
    return t;
}

std::string
perfRecordJsonLocked(const PerfTotals &t)
{
    const double serial =
        t.cpuSeconds > 0.0 ? static_cast<double>(t.sims) / t.cpuSeconds
                           : 0.0;
    const double parallel =
        t.wallSeconds > 0.0 ? static_cast<double>(t.sims) / t.wallSeconds
                            : 0.0;
    const double speedup =
        t.wallSeconds > 0.0 ? t.cpuSeconds / t.wallSeconds : 0.0;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\n"
                  "  \"bench\": \"%s\",\n"
                  "  \"jobs\": %u,\n"
                  "  \"sims\": %llu,\n"
                  "  \"cpu_seconds\": %.3f,\n"
                  "  \"wall_seconds\": %.3f,\n"
                  "  \"serial_sims_per_sec\": %.4f,\n"
                  "  \"parallel_sims_per_sec\": %.4f,\n"
                  "  \"speedup\": %.3f,\n"
                  "  \"runs_ok\": %llu,\n"
                  "  \"runs_retried\": %llu,\n"
                  "  \"runs_quarantined\": %llu,\n"
                  "  \"runs\": [",
                  t.bench.c_str(), t.jobs,
                  static_cast<unsigned long long>(t.sims), t.cpuSeconds,
                  t.wallSeconds, serial, parallel, speedup,
                  static_cast<unsigned long long>(t.runsOk),
                  static_cast<unsigned long long>(t.runsRetried),
                  static_cast<unsigned long long>(t.runsQuarantined));
    std::string out = buf;
    for (std::size_t i = 0; i < t.outcomes.size(); ++i) {
        const RunOutcome &o = t.outcomes[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n    {\"index\": %zu, \"status\": \"%s\", "
                      "\"attempts\": %u, \"wall_seconds\": %.3f",
                      i == 0 ? "" : ",", o.index, toString(o.status),
                      o.attempts, o.wallSeconds);
        out += buf;
        if (!o.error.empty())
            out += ", \"error\": \"" + jsonEscape(o.error) + "\"";
        out += "}";
    }
    out += t.outcomes.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

void
writePerfRecord()
{
    PerfTotals &t = perfTotals();
    std::lock_guard<std::mutex> lock(t.mu);
    if (t.sims == 0)
        return;
    std::FILE *f = std::fopen("BENCH_harness.json", "w");
    if (!f) {
        warn("cannot write BENCH_harness.json");
        return;
    }
    const std::string json = perfRecordJsonLocked(t);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
}

void
registerPerfRecord()
{
    static std::once_flag once;
    std::call_once(once, [] {
        // Construct the totals BEFORE registering the handler: function
        // statics are destroyed in reverse construction order, so this
        // guarantees writePerfRecord runs while they are still alive.
        perfTotals();
        std::atexit(writePerfRecord);
    });
}

/**
 * Exit-code guard: a sweep with runs still quarantined must not look
 * successful to scripts.  Runs after writePerfRecord (atexit is LIFO
 * and parseArgs registers this guard first), so the JSON is on disk
 * before _Exit.
 */
void
quarantineExitGuard()
{
    if (!exitOnQuarantineFlag.load(std::memory_order_relaxed))
        return;
    const std::uint64_t q = quarantinedRunsTotal();
    if (q == 0)
        return;
    std::fprintf(stderr,
                 "harness: %llu run(s) stayed quarantined; exiting "
                 "nonzero\n", static_cast<unsigned long long>(q));
    std::fflush(stderr);
    std::_Exit(1);
}

void
registerQuarantineGuard()
{
    static std::once_flag once;
    std::call_once(once, [] {
        perfTotals(); // keep alive for the guard (see registerPerfRecord)
        std::atexit(quarantineExitGuard);
    });
}

} // namespace

const char *
toString(RunStatus status)
{
    switch (status) {
      case RunStatus::Ok: return "ok";
      case RunStatus::Retried: return "retried";
      case RunStatus::Quarantined: return "quarantined";
    }
    return "unknown";
}

std::size_t
currentRunIndex()
{
    return tlsRunIndex;
}

std::uint32_t
currentAttempt()
{
    return tlsAttempt;
}

std::atomic<std::uint64_t> *
currentRunHeartbeat()
{
    return tlsHeartbeat;
}

const std::atomic<bool> *
currentRunAbortFlag()
{
    return tlsAbortFlag;
}

ScopedRunWatch::ScopedRunWatch(const std::atomic<bool> *abort,
                               std::atomic<std::uint64_t> *heartbeat)
    : prevAbort(tlsAbortFlag), prevHeartbeat(tlsHeartbeat)
{
    tlsAbortFlag = abort;
    tlsHeartbeat = heartbeat;
}

ScopedRunWatch::~ScopedRunWatch()
{
    tlsAbortFlag = prevAbort;
    tlsHeartbeat = prevHeartbeat;
}

std::uint64_t
currentBatchIndex()
{
    return activeBatch.load(std::memory_order_relaxed);
}

void
pruneHangDumps(const std::string &dir, std::size_t keep)
{
    if (keep == 0 || dir.empty())
        return;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return;
    // (mtime, name) so same-second dumps still order deterministically.
    std::vector<std::pair<std::pair<std::int64_t, std::string>,
                          std::string>> dumps;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name.rfind("hang-", 0) != 0 || name.size() < 5 + 5 ||
            name.substr(name.size() - 5) != ".dump")
            continue;
        const std::string path = dir + "/" + name;
        struct stat st;
        if (::stat(path.c_str(), &st) != 0)
            continue;
        dumps.push_back({{static_cast<std::int64_t>(st.st_mtime), name},
                         path});
    }
    ::closedir(d);
    if (dumps.size() <= keep)
        return;
    std::sort(dumps.begin(), dumps.end());
    for (std::size_t i = 0; i + keep < dumps.size(); ++i)
        ::unlink(dumps[i].second.c_str());
}

void
resetSweepBatchesForTest()
{
    sweepBatchCounter.store(0, std::memory_order_relaxed);
}

std::uint64_t
quarantinedRunsTotal()
{
    PerfTotals &t = perfTotals();
    std::lock_guard<std::mutex> lock(t.mu);
    return t.runsQuarantined;
}

void
setExitOnQuarantine(bool enable)
{
    exitOnQuarantineFlag.store(enable, std::memory_order_relaxed);
}

std::string
perfRecordJson()
{
    PerfTotals &t = perfTotals();
    std::lock_guard<std::mutex> lock(t.mu);
    return perfRecordJsonLocked(t);
}

const char *
usageString()
{
    return "usage: <bench> [flags]\n"
           "  --mixes=N    multiprogrammed workloads per experiment "
           "(default 5)\n"
           "  --scale=N    capacity divisor, 1 = paper-size caches "
           "(default 8)\n"
           "  --warmup=N   warmup cycles (default 3000000)\n"
           "  --measure=N  measured cycles (default 12000000)\n"
           "  --seed=N     base RNG seed (default 42)\n"
           "  --policy=NAME  restrict/override the replacement policy "
           "under test\n"
           "               (see arena registry; misspellings get a 'did "
           "you mean' hint)\n"
           "  --jobs=N     concurrent simulations (default: hardware "
           "threads; 1 = serial)\n"
           "  --check-interval=N  walk the integrity checker every N "
           "references (0 = off)\n"
           "  --inject=CLASS[@IDX]  poison run IDX (default 0) of each "
           "batch with one CLASS fault\n"
           "               (tag-state, dir-drop, dir-ghost, owner, "
           "orphan-data, mshr-leak, repl-meta)\n"
           "  --checkpoint-interval=N  checkpoint each run's full state "
           "every N references\n"
           "               (needs --sweep-dir or --resume; 0 = off)\n"
           "  --sweep-dir=DIR  journal completed runs and keep results/"
           "checkpoints in DIR\n"
           "  --resume=DIR relaunch a killed sweep from DIR: skip "
           "journaled runs, restore\n"
           "               in-flight ones from their latest valid "
           "checkpoint\n"
           "  --hang-timeout=S  abort and quarantine runs making no "
           "forward progress for\n"
           "               S wall seconds (default 300; 0 = off)\n"
           "  --telemetry-dir=DIR  write per-run telemetry artifacts "
           "(traces, epoch CSVs,\n"
           "               stats JSON) under DIR\n"
           "  --trace-events  record event traces as Chrome trace_event "
           "JSON\n"
           "               (needs --telemetry-dir)\n"
           "  --sample-interval=N  sample stat deltas every N simulated "
           "cycles into an\n"
           "               epoch CSV (needs --telemetry-dir)\n"
           "  --feed-cache=DIR  persist/replay fan-out front-end record "
           "streams under DIR\n"
           "               (warm hits skip stream generation and private-"
           "hierarchy simulation)\n"
           "  --no-feed-cache  force the feed cache off (overrides a "
           "bench's default dir)\n"
           "  --full       paper-strength settings (100 mixes, longer "
           "windows)\n"
           "  --help       print this text and exit\n";
}

RunOptions
parseArgs(int argc, char **argv)
{
    if (argc > 0 && argv[0]) {
        const char *base = std::strrchr(argv[0], '/');
        std::lock_guard<std::mutex> lock(perfTotals().mu);
        perfTotals().bench = base ? base + 1 : argv[0];
    }
    // Guard first, JSON writer second: atexit runs LIFO, so the perf
    // record is on disk before the guard can _Exit nonzero.
    registerQuarantineGuard();
    registerPerfRecord();
    RunOptions opt;
    // Bench CLIs default the watchdog on; tests constructing RunOptions
    // directly keep it off (hangTimeout's field default is 0).
    opt.hangTimeout = 300.0;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            const std::size_t n = std::strlen(prefix);
            return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
        };
        if (const char *v = value("--mixes=")) {
            opt.mixCount = static_cast<std::uint32_t>(std::atoi(v));
        } else if (const char *v = value("--scale=")) {
            opt.scale = static_cast<std::uint32_t>(std::atoi(v));
        } else if (const char *v = value("--warmup=")) {
            opt.warmup = static_cast<Cycle>(std::atoll(v));
        } else if (const char *v = value("--measure=")) {
            opt.measure = static_cast<Cycle>(std::atoll(v));
        } else if (const char *v = value("--seed=")) {
            opt.seed = static_cast<std::uint64_t>(std::atoll(v));
        } else if (const char *v = value("--policy=")) {
            // Resolves through the arena registry: unknown names fatal
            // with a did-you-mean hint and the full spelling list.
            opt.policyKind = arena::parsePolicyName(v);
            opt.policy = arena::policyInfo(opt.policyKind).name;
        } else if (const char *v = value("--jobs=")) {
            const int jobs = std::atoi(v);
            if (jobs < 1)
                fatal("--jobs must be >= 1 (got '%s'); use --jobs=1 for "
                      "the serial path", v);
            opt.jobs = static_cast<std::uint32_t>(jobs);
        } else if (const char *v = value("--check-interval=")) {
            opt.checkInterval = static_cast<std::uint64_t>(std::atoll(v));
        } else if (const char *v = value("--checkpoint-interval=")) {
            opt.checkpointInterval =
                static_cast<std::uint64_t>(std::atoll(v));
        } else if (const char *v = value("--sweep-dir=")) {
            opt.sweepDir = v;
        } else if (const char *v = value("--resume=")) {
            opt.sweepDir = v;
            opt.resume = true;
        } else if (const char *v = value("--hang-timeout=")) {
            opt.hangTimeout = std::atof(v);
        } else if (const char *v = value("--telemetry-dir=")) {
            opt.telemetryDir = v;
        } else if (std::strcmp(arg, "--trace-events") == 0) {
            opt.traceEvents = true;
        } else if (const char *v = value("--sample-interval=")) {
            opt.sampleInterval = static_cast<Cycle>(std::atoll(v));
        } else if (const char *v = value("--feed-cache=")) {
            opt.feedCacheDir = v;
            opt.feedCacheDisabled = false;
        } else if (std::strcmp(arg, "--no-feed-cache") == 0) {
            // Spelled as its own flag (not --feed-cache=) so benches
            // that default the cache on (arena_tournament) can be
            // overridden explicitly; last flag wins.
            opt.feedCacheDir.clear();
            opt.feedCacheDisabled = true;
        } else if (const char *v = value("--inject=")) {
            std::string spec = v;
            if (const std::size_t at = spec.find('@');
                at != std::string::npos) {
                opt.injectRun =
                    static_cast<std::size_t>(std::atoll(spec.c_str() +
                                                        at + 1));
                spec.resize(at);
            }
            FaultClass cls = FaultClass::TagStateFlip;
            if (!faultClassFromName(spec, cls))
                fatal("unknown fault class '%s'; known classes: "
                      "tag-state, dir-drop, dir-ghost, owner, "
                      "orphan-data, mshr-leak, repl-meta", spec.c_str());
            opt.injectFault = spec;
        } else if (std::strcmp(arg, "--full") == 0) {
            opt.mixCount = 100;
            opt.warmup = 5'000'000;
            opt.measure = 20'000'000;
        } else if (std::strcmp(arg, "--help") == 0) {
            std::printf("%s", usageString());
            std::exit(0);
        } else {
            std::fprintf(stderr, "%s", usageString());
            fatal("unknown flag '%s'", arg);
        }
    }
    if (opt.mixCount == 0 || opt.scale == 0 || opt.measure == 0)
        fatal("mixes, scale and measure must be positive");
    if (opt.resume && opt.sweepDir.empty())
        fatal("--resume needs a directory (--resume=DIR)");
    if (opt.checkpointInterval != 0 && opt.sweepDir.empty())
        fatal("--checkpoint-interval needs --sweep-dir=DIR or "
              "--resume=DIR to know where to put the checkpoints");
    if (opt.hangTimeout < 0.0)
        fatal("--hang-timeout must be >= 0");
    if ((opt.traceEvents || opt.sampleInterval != 0) &&
        opt.telemetryDir.empty())
        fatal("--trace-events and --sample-interval need "
              "--telemetry-dir=DIR to know where to put the artifacts");
    return opt;
}

RunOptions
initBench(int argc, char **argv, const std::string &artifact,
          const std::string &claim,
          const std::function<void(RunOptions &)> &tweak)
{
    RunOptions opt = parseArgs(argc, argv);
    if (tweak)
        tweak(opt);
#ifndef __OPTIMIZE__
    // Numbers from an -O0 build are not comparable to recorded
    // baselines (BENCH_*.json); say so once per bench process.
    warn("this bench binary was built without optimization; "
         "performance figures will not match recorded baselines");
#endif
    printHeader(artifact, claim, opt);
    return opt;
}

std::uint32_t
effectiveJobs(const RunOptions &opt)
{
    return opt.jobs ? opt.jobs
                    : static_cast<std::uint32_t>(
                          TaskPool::defaultConcurrency());
}

std::vector<RunOutcome>
forEachRun(std::size_t n, const RunOptions &opt,
           const std::function<void(std::size_t)> &body,
           const ResultCodec *codec)
{
    if (n == 0)
        return {};
    registerPerfRecord();
    const std::uint64_t batch =
        sweepBatchCounter.fetch_add(1, std::memory_order_relaxed);
    activeBatch.store(batch, std::memory_order_relaxed);
    const std::uint32_t jobs = effectiveJobs(opt);

    using clock = std::chrono::steady_clock;
    std::atomic<std::uint64_t> runNanos{0};
    std::vector<RunOutcome> outcomes(n);
    std::vector<char> skip(n, 0);

    // Resume: journaled ok/retried runs whose result blob verifies are
    // skipped; quarantined and unjournaled runs re-execute (restoring
    // from their checkpoints inside runMix).  Later journal records win
    // so a resume-of-a-resume sees the freshest state.
    std::unique_ptr<SweepJournal> journal;
    if (!opt.sweepDir.empty()) {
        if (opt.resume) {
            for (const JournalRecord &rec : SweepJournal::load(opt.sweepDir)) {
                if (rec.batch != batch || rec.run >= n)
                    continue;
                const std::size_t i = static_cast<std::size_t>(rec.run);
                if (rec.status == "quarantined" || !codec || !codec->load) {
                    skip[i] = 0;
                    continue;
                }
                const std::string rp =
                    runFilePath(opt.sweepDir, "result", batch, i, "bin");
                try {
                    Deserializer d(rp);
                    if (d.payloadCrc() != rec.digest)
                        throwSimError(SimError::Kind::Snapshot,
                                      "result blob '%s' digest 0x%08x does "
                                      "not match the journal's 0x%08x",
                                      rp.c_str(), d.payloadCrc(),
                                      rec.digest);
                    d.beginSection("result");
                    codec->load(i, d);
                    d.endSection("result");
                } catch (const SimError &err) {
                    warn("resume: run %zu of batch %llu: %s -- re-running",
                         i, static_cast<unsigned long long>(batch),
                         err.what());
                    skip[i] = 0;
                    continue;
                }
                RunOutcome &out = outcomes[i];
                out.index = i;
                out.status = rec.status == "retried" ? RunStatus::Retried
                                                     : RunStatus::Ok;
                out.attempts = rec.attempts;
                out.wallSeconds = rec.wallSeconds;
                out.error.clear();
                out.fromJournal = true;
                skip[i] = 1;
            }
        }
        journal = std::make_unique<SweepJournal>(opt.sweepDir);
    }

    // Forward-progress watchdog: one heartbeat slot per run, one
    // monitor thread flagging runs whose beat stalls past the timeout.
    const bool watch = opt.hangTimeout > 0.0;
    std::vector<HeartbeatSlot> slots(watch ? n : 0);
    std::atomic<bool> stopWatch{false};
    std::thread monitor;
    if (watch) {
        monitor = std::thread([&, n] {
            struct Seen
            {
                std::uint64_t epoch = 0;
                std::uint64_t beat = 0;
                clock::time_point since;
                bool armed = false;
            };
            std::vector<Seen> seen(n);
            const auto poll = std::chrono::duration<double>(
                std::clamp(opt.hangTimeout / 4.0, 0.001, 0.25));
            while (!stopWatch.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(poll);
                const auto now = clock::now();
                for (std::size_t i = 0; i < n; ++i) {
                    HeartbeatSlot &slot = slots[i];
                    if (!slot.running.load(std::memory_order_acquire)) {
                        seen[i].armed = false;
                        continue;
                    }
                    Seen &sn = seen[i];
                    const std::uint64_t e =
                        slot.epoch.load(std::memory_order_relaxed);
                    const std::uint64_t b =
                        slot.beat.load(std::memory_order_relaxed);
                    if (!sn.armed || e != sn.epoch || b != sn.beat) {
                        sn = {e, b, now, true};
                        continue;
                    }
                    if (slot.abort.load(std::memory_order_relaxed))
                        continue;
                    const double stalled =
                        std::chrono::duration<double>(now - sn.since)
                            .count();
                    if (stalled >= opt.hangTimeout) {
                        warn("watchdog: run %zu made no forward progress "
                             "for %.1f s -- aborting it", i, stalled);
                        slot.abort.store(true, std::memory_order_release);
                    }
                }
            }
        });
    }

    // Crash isolation: a SimError fails only this run — retry once,
    // then quarantine.  Anything else still propagates (a logic bug in
    // the harness must not be silently absorbed).
    auto guarded = [&](std::size_t i) {
        if (skip[i])
            return;
        RunOutcome &out = outcomes[i];
        out.index = i;
        tlsRunIndex = i;
        HeartbeatSlot *slot = watch ? &slots[i] : nullptr;
        if (slot) {
            // livelockRun (test hook): run normally, but never publish
            // the heartbeat, so the monitor must flag this run.
            tlsHeartbeat = i == opt.livelockRun ? nullptr : &slot->beat;
            tlsAbortFlag = &slot->abort;
        }
        const auto t0 = clock::now();
        for (std::uint32_t attempt = 0;; ++attempt) {
            tlsAttempt = attempt;
            out.attempts = attempt + 1;
            if (slot) {
                slot->abort.store(false, std::memory_order_relaxed);
                slot->beat.store(0, std::memory_order_relaxed);
                slot->epoch.fetch_add(1, std::memory_order_relaxed);
                slot->running.store(true, std::memory_order_release);
            }
            try {
                body(i);
                if (slot)
                    slot->running.store(false, std::memory_order_release);
                out.status =
                    attempt == 0 ? RunStatus::Ok : RunStatus::Retried;
                out.error.clear();
                break;
            } catch (const SimError &err) {
                if (slot)
                    slot->running.store(false, std::memory_order_release);
                out.error = err.what();
                warn("run %zu attempt %u failed: %s%s", i, attempt + 1,
                     err.what(),
                     attempt == 0 ? " -- retrying" : " -- quarantined");
                if (attempt == 1) {
                    out.status = RunStatus::Quarantined;
                    break;
                }
            }
        }
        tlsRunIndex = SIZE_MAX;
        tlsAttempt = 0;
        tlsHeartbeat = nullptr;
        tlsAbortFlag = nullptr;
        out.wallSeconds =
            std::chrono::duration<double>(clock::now() - t0).count();
        runNanos.fetch_add(
            static_cast<std::uint64_t>(out.wallSeconds * 1e9),
            std::memory_order_relaxed);

        if (!journal)
            return;
        // Persist the result (when a codec exists) and journal the run.
        std::uint32_t digest = 0;
        if (out.status != RunStatus::Quarantined && codec && codec->save) {
            try {
                Serializer s;
                s.beginSection("result");
                codec->save(i, s);
                s.endSection("result");
                s.writeFile(
                    runFilePath(opt.sweepDir, "result", batch, i, "bin"));
                digest = s.payloadCrc();
            } catch (const SimError &err) {
                warn("cannot persist the result of run %zu: %s", i,
                     err.what());
            }
        }
        JournalRecord rec;
        rec.batch = batch;
        rec.run = i;
        rec.status = toString(out.status);
        rec.attempts = out.attempts;
        rec.digest = digest;
        rec.wallSeconds = out.wallSeconds;
        rec.error = out.error;
        journal->append(rec);
    };

    const auto wall0 = clock::now();
    try {
        if (jobs <= 1 || n == 1) {
            for (std::size_t i = 0; i < n; ++i)
                guarded(i);
        } else {
            TaskPool pool(std::min<std::size_t>(jobs, n));
            pool.parallelFor(0, n, guarded);
        }
    } catch (...) {
        stopWatch.store(true, std::memory_order_relaxed);
        if (monitor.joinable())
            monitor.join();
        activeBatch.store(UINT64_MAX, std::memory_order_relaxed);
        throw;
    }
    stopWatch.store(true, std::memory_order_relaxed);
    if (monitor.joinable())
        monitor.join();
    activeBatch.store(UINT64_MAX, std::memory_order_relaxed);
    const double wall =
        std::chrono::duration<double>(clock::now() - wall0).count();

    std::size_t executed = 0;
    for (std::size_t i = 0; i < n; ++i)
        executed += skip[i] ? 0 : 1;

    PerfTotals &t = perfTotals();
    std::lock_guard<std::mutex> lock(t.mu);
    t.sims += executed;
    t.cpuSeconds += static_cast<double>(runNanos.load()) * 1e-9;
    t.wallSeconds += wall;
    t.jobs = jobs;
    for (const RunOutcome &o : outcomes) {
        switch (o.status) {
          case RunStatus::Ok: ++t.runsOk; break;
          case RunStatus::Retried: ++t.runsRetried; break;
          case RunStatus::Quarantined: ++t.runsQuarantined; break;
        }
        t.outcomes.push_back(o);
    }
    return outcomes;
}

double
speedupRatio(double sys_ipc, double baseline_ipc)
{
    return baseline_ipc > 0.0 ? sys_ipc / baseline_ipc : 0.0;
}

SystemConfig
baselineFor(const RunOptions &opt)
{
    SystemConfig sys = baselineSystem(opt.scale);
    if (!opt.policy.empty())
        sys.conv.repl = opt.policyKind;
    return sys;
}

namespace
{

RunResult
collect(Cmp &cmp)
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

/** Is the calling thread's run the --inject target, this attempt? */
bool
isInjectTarget(const RunOptions &opt)
{
    return !opt.injectFault.empty() &&
           currentRunIndex() == opt.injectRun &&
           (opt.injectOnRetry || currentAttempt() == 0);
}

/**
 * Cadence for the integrity checker: the explicit --check-interval, or
 * a default one on a poisoned run so the injected fault is actually
 * caught mid-run rather than only at quiesce.
 */
std::uint64_t
checkCadence(const RunOptions &opt)
{
    if (opt.checkInterval != 0)
        return opt.checkInterval;
    return isInjectTarget(opt) ? 5'000 : 0;
}

void
applyInjectedFault(Cmp &cmp, const RunOptions &opt)
{
    FaultClass cls = FaultClass::TagStateFlip;
    if (!faultClassFromName(opt.injectFault, cls))
        throwSimError(SimError::Kind::Config,
                      "unknown fault class '%s'",
                      opt.injectFault.c_str());
    // Per-run seed: deterministic, but distinct targets across runs.
    FaultInjector injector(opt.seed + currentRunIndex());
    const InjectionResult r = injector.inject(cmp, cls);
    warn("run %zu attempt %u: inject %s: %s", currentRunIndex(),
         currentAttempt() + 1, toString(cls), r.detail.c_str());
}

/**
 * File tag of the calling worker's run, matching runFilePath(): the
 * telemetry artifacts sit next to the checkpoints under the same
 * naming scheme so a sweep's outputs line up run for run.
 */
std::string
telemetryTag()
{
    if (currentRunIndex() == SIZE_MAX) {
        // Benches call runMix outside forEachRun repeatedly (one call
        // per configuration); number those so artifacts never silently
        // overwrite each other.
        static std::atomic<std::uint64_t> soloRuns{0};
        const std::uint64_t n = soloRuns.fetch_add(1);
        return n == 0 ? "solo" : "solo" + std::to_string(n + 1);
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), "b%llu-r%zu",
                  static_cast<unsigned long long>(currentBatchIndex()),
                  currentRunIndex());
    return buf;
}

/**
 * Persist one run's resumable state: a "harness" section carrying the
 * phase (0 = warmup, 1 = measurement) and a fingerprint of the options
 * that shape determinism, then the full Cmp image, then the epoch
 * sampler's accumulated rows and baselines (absent when sampling is
 * off; the sampleInterval fingerprint keeps the two in agreement).
 * Checkpoints and watchdog hang dumps share this layout.
 */
void
writeRunState(const Cmp &cmp, std::uint32_t phase, const RunOptions &opt,
              const EpochSampler *sampler, const std::string &path)
{
    Serializer s;
    s.beginSection("run");
    s.beginSection("harness");
    s.putU32(phase);
    s.putU64(opt.seed);
    s.putU64(opt.warmup);
    s.putU64(opt.measure);
    s.putU64(opt.scale);
    s.putU64(opt.sampleInterval);
    s.endSection("harness");
    s.beginSection("cmp");
    cmp.save(s);
    s.endSection("cmp");
    s.beginSection("telemetry");
    s.putBool(sampler != nullptr);
    if (sampler)
        sampler->save(s);
    s.endSection("telemetry");
    s.endSection("run");
    s.writeFile(path);
}

/**
 * One simulation run with the full robustness kit: optional resume from
 * a checkpoint, periodic checkpointing, watchdog wiring, integrity
 * cadence, fault injection and the tracker cooldown.  runMix and
 * runParallel differ only in how the Cmp is built.
 */
RunResult
executeRun(const SystemConfig &cfg,
           const std::function<std::unique_ptr<Cmp>()> &make_cmp,
           const RunOptions &opt, GenerationTracker *tracker,
           Cycle *win_start, Cycle *win_end)
{
    std::unique_ptr<Cmp> sim = make_cmp();

    // Quarantine-retry hygiene: a tracker that stayed attached across a
    // failed attempt holds that attempt's history; start it clean so a
    // retry is bit-identical to a clean first attempt.
    if (tracker)
        tracker->reset();

    const bool wantCheckpoints =
        opt.checkpointInterval != 0 && !opt.sweepDir.empty();
    if (wantCheckpoints && tracker)
        warn("run %zu: checkpointing disabled, a generation tracker is "
             "attached (observer history is not simulated state)",
             currentRunIndex());
    std::string ckptPath;
    if (wantCheckpoints && !tracker) {
        ensureDir(opt.sweepDir);
        ckptPath = runFilePath(opt.sweepDir, "ckpt", currentBatchIndex(),
                               currentRunIndex(), "ckpt");
    }

    // The telemetry session precedes the restore attempt: a resumed run
    // must restore its sampler baselines from the checkpoint before the
    // sample hook is installed.
    TelemetryConfig tcfg;
    tcfg.dir = opt.telemetryDir;
    tcfg.traceEvents = opt.traceEvents;
    tcfg.sampleInterval = opt.sampleInterval;
    std::unique_ptr<TelemetrySession> telemetry;
    const std::string ttag = tcfg.enabled() ? telemetryTag() : "";
    if (tcfg.enabled())
        telemetry = std::make_unique<TelemetrySession>(tcfg, ttag);
    EventTracer *tracer = telemetry ? telemetry->tracer() : nullptr;
    EpochSampler *sampler = telemetry ? telemetry->sampler() : nullptr;
    if (tracer)
        tracer->recordHost("run.attempt", 0, 0, currentAttempt() + 1);

    // Resume: restore from the run's checkpoint when one exists; any
    // snapshot error falls back to a from-scratch execution.
    std::uint32_t phase = 0; // 0 = warmup, 1 = measurement
    if (opt.resume && !ckptPath.empty() && fileExists(ckptPath)) {
        try {
            Deserializer d(ckptPath);
            d.beginSection("run");
            d.beginSection("harness");
            const std::uint32_t savedPhase = d.getU32();
            const std::uint64_t seed = d.getU64();
            const std::uint64_t warmup = d.getU64();
            const std::uint64_t measure = d.getU64();
            const std::uint64_t scale = d.getU64();
            const std::uint64_t sampleEvery = d.getU64();
            if (savedPhase > 1)
                throwSimError(SimError::Kind::Snapshot,
                              "checkpoint '%s' carries unknown phase %u",
                              ckptPath.c_str(), savedPhase);
            if (seed != opt.seed || warmup != opt.warmup ||
                measure != opt.measure || scale != opt.scale ||
                sampleEvery != opt.sampleInterval)
                throwSimError(SimError::Kind::Snapshot,
                              "checkpoint '%s' was taken under different "
                              "run options (seed %llu warmup %llu measure "
                              "%llu scale %llu sample-interval %llu)",
                              ckptPath.c_str(),
                              static_cast<unsigned long long>(seed),
                              static_cast<unsigned long long>(warmup),
                              static_cast<unsigned long long>(measure),
                              static_cast<unsigned long long>(scale),
                              static_cast<unsigned long long>(sampleEvery));
            d.endSection("harness");
            d.beginSection("cmp");
            sim->restore(d);
            d.endSection("cmp");
            d.beginSection("telemetry");
            const bool hasSampler = d.getBool();
            if (hasSampler != (sampler != nullptr))
                throwSimError(SimError::Kind::Snapshot,
                              "checkpoint '%s' and this run disagree on "
                              "epoch sampling", ckptPath.c_str());
            if (sampler)
                sampler->restore(d);
            d.endSection("telemetry");
            d.endSection("run");
            // A checkpoint that restores into an inconsistent system is
            // as unusable as one that fails its CRC.
            IntegrityChecker(*sim).enforce(sim->now());
            phase = savedPhase;
            warn("run %zu: resumed from '%s' (phase %u, %llu references "
                 "already simulated)", currentRunIndex(), ckptPath.c_str(),
                 phase,
                 static_cast<unsigned long long>(
                     sim->referencesProcessed()));
        } catch (const SimError &err) {
            warn("run %zu: checkpoint '%s' unusable: %s -- restarting "
                 "the run from scratch", currentRunIndex(),
                 ckptPath.c_str(), err.what());
            sim = make_cmp();
            phase = 0;
            if (telemetry) {
                // A failed restore may have half-filled the sampler;
                // rebuild the session so the run starts pristine.
                telemetry.reset();
                telemetry = std::make_unique<TelemetrySession>(tcfg, ttag);
                tracer = telemetry->tracer();
                sampler = telemetry->sampler();
                if (tracer)
                    tracer->recordHost("run.attempt", 0, 0,
                                       currentAttempt() + 1);
            }
        }
    }

    Cmp &cmp = *sim;
    if (telemetry)
        telemetry->attach(cmp);
    if (tracker)
        cmp.llc().setObserver(tracker);
    IntegrityChecker checker(cmp);
    const std::uint64_t cadence = checkCadence(opt);
    if (cadence != 0)
        cmp.setCheckHook(cadence, [&checker](const Cmp &, Cycle now) {
            checker.enforce(now);
        });

    // Watchdog wiring: publish forward progress, honor the abort flag,
    // and leave a diagnostic state dump behind when aborted.
    if (const std::atomic<bool> *abort_flag = currentRunAbortFlag()) {
        cmp.setProgressCounter(currentRunHeartbeat());
        std::string dumpPath;
        if (!opt.sweepDir.empty()) {
            ensureDir(opt.sweepDir);
            dumpPath = runFilePath(opt.sweepDir, "hang",
                                   currentBatchIndex(), currentRunIndex(),
                                   "dump");
        }
        cmp.setAbortFlag(abort_flag,
                         [&opt, &phase, sampler, dumpPath](const Cmp &c) {
            if (dumpPath.empty())
                return;
            try {
                writeRunState(c, phase, opt, sampler, dumpPath);
                warn("watchdog: diagnostic state dump written to '%s'",
                     dumpPath.c_str());
                // A sweep that keeps tripping its watchdog across
                // relaunches must not fill the disk with diagnostics.
                pruneHangDumps(opt.sweepDir, opt.hangDumpKeep);
            } catch (const SimError &err) {
                warn("watchdog: cannot write the state dump: %s",
                     err.what());
            }
        });
    }

    // Periodic checkpoints, plus the simulated-crash test hook (which
    // dies right after a checkpoint landed, like a kill -9 would).
    if (!ckptPath.empty())
        cmp.setSnapshotHook(opt.checkpointInterval,
                            [&opt, &phase, sampler, tracer,
                             ckptPath](const Cmp &c, Cycle) {
            const std::uint64_t t0 = tracer ? tracer->hostNowMicros() : 0;
            writeRunState(c, phase, opt, sampler, ckptPath);
            if (tracer)
                tracer->recordHost("checkpoint.write", 0,
                                   tracer->hostNowMicros() - t0);
            if (opt.crashAfterRefs != 0 &&
                c.referencesProcessed() >= opt.crashAfterRefs)
                throwSimError(SimError::Kind::Snapshot,
                              "simulated crash after %llu references "
                              "(test hook)",
                              static_cast<unsigned long long>(
                                  c.referencesProcessed()));
        });

    if (phase == 0) {
        const std::uint64_t warm0 = tracer ? tracer->hostNowMicros() : 0;
        cmp.run(opt.warmup);
        if (tracer)
            tracer->recordHost("run.warmup", 0,
                               tracer->hostNowMicros() - warm0);
        if (isInjectTarget(opt))
            applyInjectedFault(cmp, opt);
        cmp.beginMeasurement();
        phase = 1;
        if (win_start)
            *win_start = cmp.now();
        const std::uint64_t meas0 = tracer ? tracer->hostNowMicros() : 0;
        cmp.run(opt.measure);
        if (tracer)
            tracer->recordHost("run.measure", 0,
                               tracer->hostNowMicros() - meas0);
    } else {
        // Mid-measurement restore: warmup, injection and the counter
        // snapshots already happened before the checkpoint; re-running
        // run(measure) continues to the identical horizon because the
        // loop end is computed from the restored pre-measurement
        // horizon.
        if (win_start)
            *win_start = cmp.measurementStart();
        const std::uint64_t meas0 = tracer ? tracer->hostNowMicros() : 0;
        cmp.run(opt.measure);
        if (tracer)
            tracer->recordHost("run.measure", 0,
                               tracer->hostNowMicros() - meas0);
    }
    if (win_end)
        *win_end = cmp.now();
    const RunResult res = collect(cmp);
    if (tracker) {
        // Cooldown: liveness is future knowledge ("will this line be
        // hit again?"), so keep simulating past the reported window;
        // otherwise every line looks dead near the window's end.
        cmp.run(opt.measure / 2);
        tracker->finalize(cmp.now());
        if (sampler) {
            // Emit the residual epoch now (finalize()'s own finish() is
            // then a no-op) so the cooldown row gets a live fraction.
            sampler->finish(cmp, cmp.now());
            sampler->attachLiveFractions(tracker->records(),
                                         cmp.llc().dataLinesTotal());
        }
    }
    if (telemetry)
        telemetry->finalize(cmp, cmp.now());
    if (cadence != 0)
        checker.enforceQuiesce(cmp.now());
    if (!ckptPath.empty())
        std::remove(ckptPath.c_str());
    (void)cfg;
    return res;
}

/**
 * One fan-out job: simulate @p mix on every config through one shared
 * front end.  Telemetry, integrity checking and watchdog wiring are
 * installed per member, so each back end's artifacts and checks match
 * an independent run's.  The heavier robustness kit (checkpoint files,
 * resume, fault injection) is handled by the caller falling back to
 * independent executeRun jobs — see runConfigsOverMixes().
 */
std::vector<RunResult>
executeFanout(const std::vector<SystemConfig> &sys_cfgs, const Mix &mix,
              const RunOptions &opt)
{
    std::vector<SystemConfig> cfgs = sys_cfgs;
    for (SystemConfig &c : cfgs)
        c.seed = opt.seed;

    // Feed-cache protocol (--feed-cache=DIR): the front end's record
    // streams depend only on (front-end prefix, mix, seed, scale,
    // windows), which every member shares, so one lookup covers the
    // whole job.  Warm hit: replay zero-copy from the blob.  Miss:
    // take the key's flock lease so concurrent processes racing the
    // same cold key serialize (the loser wakes to a warm re-lookup),
    // stream the front end into a spill in the cache directory while
    // simulating, and land it after the run.  Either way the results
    // are bit-identical to an uncached pass; any cache failure demotes
    // to exactly that.
    std::shared_ptr<FeedCache> fc;
    if (!opt.feedCacheDir.empty()) {
        try {
            fc = FeedCache::open(opt.feedCacheDir);
        } catch (const SimError &e) {
            warn("feed cache disabled for this run: %s", e.what());
        }
    }
    FeedKey key;
    std::shared_ptr<const FeedBlob> blob;
    std::unique_ptr<FeedKeyLease> lease;
    if (fc) {
        key = feedKeyOf(cfgs.front(), mix, opt.seed, opt.scale,
                        opt.warmup, opt.measure);
        blob = fc->lookup(key);
        if (!blob) {
            lease = fc->lockKey(key.digest);
            if (lease)
                blob = fc->lookup(key); // did the lease holder store it?
        }
    }
    const bool capture = fc != nullptr && blob == nullptr;

    FanoutCmp fan(cfgs,
                  [&mix, &opt] {
                      return buildMixStreams(mix, opt.seed, opt.scale);
                  },
                  blob, capture, capture ? fc->directory() : "");
    const std::size_t n = fan.size();

    // Per-member telemetry: one session per back end, tagged
    // <runtag>-m<member> so a fan-out sweep's artifacts line up with
    // the member order.
    TelemetryConfig tcfg;
    tcfg.dir = opt.telemetryDir;
    tcfg.traceEvents = opt.traceEvents;
    tcfg.sampleInterval = opt.sampleInterval;
    std::vector<std::unique_ptr<TelemetrySession>> telemetry;
    if (tcfg.enabled()) {
        const std::string base = telemetryTag();
        for (std::size_t j = 0; j < n; ++j) {
            telemetry.push_back(std::make_unique<TelemetrySession>(
                tcfg, base + "-m" + std::to_string(j)));
            telemetry.back()->attach(fan.member(j));
            if (EventTracer *tracer = telemetry.back()->tracer())
                tracer->recordHost("run.attempt", 0, 0,
                                   currentAttempt() + 1);
        }
    }

    // Per-member integrity cadence (fan-out never injects faults, so
    // only the explicit --check-interval applies).
    std::vector<std::unique_ptr<IntegrityChecker>> checkers;
    if (opt.checkInterval != 0) {
        for (std::size_t j = 0; j < n; ++j) {
            checkers.push_back(
                std::make_unique<IntegrityChecker>(fan.member(j)));
            IntegrityChecker *ck = checkers.back().get();
            fan.member(j).setCheckHook(
                opt.checkInterval,
                [ck](const Cmp &, Cycle now) { ck->enforce(now); });
        }
    }

    // Watchdog wiring: every member publishes into the run's shared
    // heartbeat (members advance in lockstep on one thread, so any
    // member's progress is the job's progress) and honors the abort.
    if (const std::atomic<bool> *abort_flag = currentRunAbortFlag()) {
        for (std::size_t j = 0; j < n; ++j) {
            fan.member(j).setProgressCounter(currentRunHeartbeat());
            fan.member(j).setAbortFlag(abort_flag);
        }
    }

    fan.run(opt.warmup);
    fan.beginMeasurement();
    fan.run(opt.measure);

    std::vector<RunResult> res;
    res.reserve(n);
    for (std::size_t j = 0; j < n; ++j)
        res.push_back(collect(fan.member(j)));
    for (std::size_t j = 0; j < telemetry.size(); ++j)
        telemetry[j]->finalize(fan.member(j), fan.member(j).now());
    for (std::size_t j = 0; j < checkers.size(); ++j)
        checkers[j]->enforceQuiesce(fan.member(j).now());

    if (capture) {
        // Persist after the results are in hand: a store failure (disk
        // full, torn directory) costs the next run its warm hit, never
        // this run its answer.
        try {
            fc->store(key, fan.sharedFeed());
        } catch (const SimError &e) {
            warn("feed cache store failed (run unaffected): %s",
                 e.what());
        }
    }
    return res;
}

} // namespace

RunResult
runMix(const SystemConfig &sys, const Mix &mix, const RunOptions &opt,
       GenerationTracker *tracker, Cycle *win_start, Cycle *win_end)
{
    SystemConfig cfg = sys;
    cfg.seed = opt.seed;
    return executeRun(cfg,
                      [&] {
                          return std::make_unique<Cmp>(
                              cfg, buildMixStreams(mix, opt.seed,
                                                   opt.scale));
                      },
                      opt, tracker, win_start, win_end);
}

RunResult
runParallel(const SystemConfig &sys, const AppProfile &app,
            const RunOptions &opt)
{
    SystemConfig cfg = sys;
    cfg.seed = opt.seed;
    return executeRun(cfg,
                      [&] {
                          return std::make_unique<Cmp>(
                              cfg, buildParallelStreams(app, cfg.numCores,
                                                        opt.seed,
                                                        opt.scale));
                      },
                      opt, nullptr, nullptr, nullptr);
}

// RunResult's field-level serialization moved to src/sim/run_result.cc
// (rc::saveRunResult / rc::loadRunResult, found here via ADL) when the
// sweep daemon started persisting the same values.

namespace
{

/**
 * In-process memo of finished RunResults keyed by the service's
 * canonical request bytes (every SystemConfig field, the mix and the
 * deterministic run options) plus the job count: benches re-running the
 * same baseline for several comparisons reuse the simulated results.
 * Equal keys imply equal simulations; a spurious mismatch (say, two
 * configs differing only in a display name) only costs a re-run.
 */
struct RunMemo
{
    std::mutex mu;
    std::map<std::string, RunResult> map;
};

RunMemo &
runMemo()
{
    static RunMemo m;
    return m;
}

/** Memoization is sound only for plain in-memory sweeps: journaling,
 *  resume and the failure-injection hooks all change what a "result"
 *  means for a given key. */
bool
memoizable(const RunOptions &opt)
{
    return opt.sweepDir.empty() && !opt.resume &&
           opt.injectFault.empty() && opt.crashAfterRefs == 0 &&
           opt.livelockRun == SIZE_MAX;
}

/**
 * Memo key of one (config, mix) cell: the canonical bytes the result
 * cache keys the same simulation by, then the job count.  The job count
 * is included deliberately even though results are jobs-invariant: the
 * determinism tests re-run sweeps across job counts to PROVE that
 * invariance, and a memo hit would short-circuit exactly the property
 * under test.
 */
std::string
cellMemoKey(const SystemConfig &cfg, const Mix &mix, const RunOptions &opt)
{
    svc::RunRequest req;
    req.config = cfg;
    req.mix = mix;
    req.seed = opt.seed;
    req.scale = opt.scale;
    req.warmup = opt.warmup;
    req.measure = opt.measure;
    const std::vector<std::uint8_t> bytes = svc::canonicalBytes(req);
    return std::string(bytes.begin(), bytes.end()) + "|j=" +
           std::to_string(effectiveJobs(opt));
}

/** Summary statistics over the filled per-mix ratio vector. */
SpeedupSummary
summarize(std::vector<double> per_mix)
{
    SpeedupSummary s;
    s.perMix = std::move(per_mix);
    double sum = 0.0;
    for (std::size_t i = 0; i < s.perMix.size(); ++i) {
        const double v = s.perMix[i];
        sum += v;
        if (i == 0) {
            s.min = s.max = v;
        } else {
            s.min = std::min(s.min, v);
            s.max = std::max(s.max, v);
        }
    }
    s.mean = s.perMix.empty() ? 0.0
                              : sum / static_cast<double>(s.perMix.size());
    return s;
}

} // namespace

std::vector<RunResult>
runMixFanout(const std::vector<SystemConfig> &cfgs, const Mix &mix,
             const RunOptions &opt)
{
    RC_ASSERT(!cfgs.empty(), "runMixFanout needs at least one config");
    return executeFanout(cfgs, mix, opt);
}

std::vector<std::vector<RunResult>>
runConfigsOverMixes(const std::vector<SystemConfig> &cfgs,
                    const std::vector<Mix> &mixes, const RunOptions &opt)
{
    std::vector<std::vector<RunResult>> results(
        cfgs.size(), std::vector<RunResult>(mixes.size()));
    if (cfgs.empty() || mixes.empty())
        return results;

    // Memo lookup: cells simulated earlier in this process (same
    // config, mix and deterministic options) are filled directly and
    // excluded from the job list.
    const bool memo = memoizable(opt);
    std::vector<std::string> cellKeys;
    std::vector<std::vector<char>> have(
        cfgs.size(), std::vector<char>(mixes.size(), 0));
    if (memo) {
        cellKeys.resize(cfgs.size() * mixes.size());
        RunMemo &cache = runMemo();
        std::lock_guard<std::mutex> lock(cache.mu);
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            for (std::size_t m = 0; m < mixes.size(); ++m) {
                std::string &key = cellKeys[i * mixes.size() + m];
                key = cellMemoKey(cfgs[i], mixes[m], opt);
                const auto it = cache.map.find(key);
                if (it != cache.map.end()) {
                    results[i][m] = it->second;
                    have[i][m] = 1;
                }
            }
        }
    }

    // Group configs by the front-end-invariant prefix, preserving
    // first-appearance order so job numbering is stable across
    // relaunches of the same bench.
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        bool placed = false;
        for (std::vector<std::size_t> &g : groups) {
            if (FanoutCmp::samePrivatePrefix(cfgs[g.front()], cfgs[i])) {
                g.push_back(i);
                placed = true;
                break;
            }
        }
        if (!placed)
            groups.push_back({i});
    }

    // Fan-out needs the plain execution kit: checkpoint files, resume
    // and fault injection address individual runs, so those sweeps keep
    // one job per (config, mix).  Prefetching state lives in front of
    // the split and disqualifies the group entirely.
    const bool fanoutOk = opt.sweepDir.empty() && !opt.resume &&
                          opt.injectFault.empty() &&
                          opt.crashAfterRefs == 0 &&
                          opt.livelockRun == SIZE_MAX;

    struct Job
    {
        std::vector<std::size_t> members; //!< config indices
        std::size_t mix = 0;
    };
    std::vector<Job> jobs;
    for (const std::vector<std::size_t> &g : groups) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            std::vector<std::size_t> need;
            for (std::size_t i : g) {
                if (!have[i][m])
                    need.push_back(i);
            }
            if (need.empty())
                continue;
            // Single-member jobs normally take the plain runMix path
            // (fan-out buys nothing), but with a feed cache attached
            // the fan-out path is where replay lives — route them
            // through it so single-config sweeps (fig06, fig07-style
            // baselines) go SLLC-only on warm keys too.
            const bool wantFanout =
                need.size() >= 2 || !opt.feedCacheDir.empty();
            if (fanoutOk && wantFanout &&
                !cfgs[need.front()].prefetch.enable) {
                jobs.push_back(Job{std::move(need), m});
            } else {
                for (std::size_t i : need)
                    jobs.push_back(Job{{i}, m});
            }
        }
    }
    if (jobs.empty())
        return results;

    ResultCodec codec;
    codec.save = [&](std::size_t j, Serializer &s) {
        const Job &job = jobs[j];
        s.putU64(job.members.size());
        for (std::size_t i : job.members)
            saveRunResult(s, results[i][job.mix]);
    };
    codec.load = [&](std::size_t j, Deserializer &d) {
        const Job &job = jobs[j];
        const std::uint64_t n = d.getU64();
        if (n != job.members.size())
            throwSimError(SimError::Kind::Snapshot,
                          "persisted fan-out job carries %llu results "
                          "for a %zu-member job",
                          static_cast<unsigned long long>(n),
                          job.members.size());
        for (std::size_t i : job.members)
            results[i][job.mix] = loadRunResult(d);
    };

    const std::vector<RunOutcome> outcomes =
        forEachRun(jobs.size(), opt, [&](std::size_t j) {
            const Job &job = jobs[j];
            if (job.members.size() == 1 && opt.feedCacheDir.empty()) {
                results[job.members.front()][job.mix] =
                    runMix(cfgs[job.members.front()], mixes[job.mix], opt);
            } else {
                std::vector<SystemConfig> group;
                group.reserve(job.members.size());
                for (std::size_t i : job.members)
                    group.push_back(cfgs[i]);
                const std::vector<RunResult> r =
                    executeFanout(group, mixes[job.mix], opt);
                for (std::size_t k = 0; k < job.members.size(); ++k)
                    results[job.members[k]][job.mix] = r[k];
            }
        }, &codec);

    if (memo) {
        RunMemo &cache = runMemo();
        std::lock_guard<std::mutex> lock(cache.mu);
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            if (outcomes[j].status == RunStatus::Quarantined)
                continue;
            for (std::size_t i : jobs[j].members)
                cache.map[cellKeys[i * mixes.size() + jobs[j].mix]] =
                    results[i][jobs[j].mix];
        }
    }
    return results;
}

std::vector<RunResult>
runBaselineOverMixes(const SystemConfig &baseline,
                     const std::vector<Mix> &mixes, const RunOptions &opt)
{
    std::vector<std::vector<RunResult>> res =
        runConfigsOverMixes({baseline}, mixes, opt);
    return std::move(res.front());
}

void
clearBaselineMemoForTest()
{
    RunMemo &cache = runMemo();
    std::lock_guard<std::mutex> lock(cache.mu);
    cache.map.clear();
}

SpeedupSummary
compareAgainst(const SystemConfig &sys, const std::vector<Mix> &mixes,
               const std::vector<RunResult> &baseline,
               const RunOptions &opt)
{
    RC_ASSERT(mixes.size() == baseline.size(),
              "baseline results do not match the mix list");
    const std::vector<std::vector<RunResult>> res =
        runConfigsOverMixes({sys}, mixes, opt);
    std::vector<double> per_mix(mixes.size(), 0.0);
    for (std::size_t i = 0; i < mixes.size(); ++i)
        per_mix[i] = speedupRatio(res.front()[i].aggregateIpc,
                                  baseline[i].aggregateIpc);
    return summarize(std::move(per_mix));
}

SpeedupSummary
compareOverMixes(const SystemConfig &sys, const SystemConfig &baseline,
                 const std::vector<Mix> &mixes, const RunOptions &opt)
{
    // One pass, two back ends per mix when the systems share a front
    // end; runConfigsOverMixes degrades to the two-batch layout itself
    // when they do not.
    const std::vector<std::vector<RunResult>> res =
        runConfigsOverMixes({baseline, sys}, mixes, opt);
    std::vector<double> per_mix(mixes.size(), 0.0);
    for (std::size_t i = 0; i < mixes.size(); ++i)
        per_mix[i] = speedupRatio(res[1][i].aggregateIpc,
                                  res[0][i].aggregateIpc);
    return summarize(std::move(per_mix));
}

void
printHeader(const std::string &artifact, const std::string &claim,
            const RunOptions &opt)
{
    std::printf("== %s ==\n", artifact.c_str());
    std::printf("paper: %s\n", claim.c_str());
    std::printf("settings: %u mixes, scale 1/%u, warmup %llu, "
                "measure %llu cycles, seed %llu, %u jobs%s%s\n",
                opt.mixCount, opt.scale,
                static_cast<unsigned long long>(opt.warmup),
                static_cast<unsigned long long>(opt.measure),
                static_cast<unsigned long long>(opt.seed),
                effectiveJobs(opt),
                opt.policy.empty() ? "" : ", policy ",
                opt.policy.c_str());
    std::fflush(stdout);
}

::rc::RunResult
simulateRequest(const svc::RunRequest &req, const std::atomic<bool> *abort,
                std::atomic<std::uint64_t> *heartbeat,
                const std::string &feed_cache_dir)
{
    RunOptions opt;
    opt.scale = req.scale;
    opt.warmup = req.warmup;
    opt.measure = req.measure;
    opt.seed = req.seed;
    opt.jobs = 1; // one request = one run; concurrency is the daemon's
    opt.feedCacheDir = feed_cache_dir;
    // Adopt the caller's watchdog (the daemon's per-job abort flag and
    // heartbeat); with both null this is a plain deterministic run —
    // the client's in-process fallback path — and bit-identical.
    ScopedRunWatch watch(abort, heartbeat);
    // With a feed cache, route through a single-member fan-out job so
    // the request's front end can replay from (or populate) the shared
    // blob; runMixFanout is bit-identical to runMix for one member.
    // Prefetching keeps state in front of the classify split and stays
    // on the plain path.
    if (!opt.feedCacheDir.empty() && !req.config.prefetch.enable)
        return runMixFanout({req.config}, req.mix, opt).front();
    return runMix(req.config, req.mix, opt);
}

} // namespace rc::bench
