/**
 * @file
 * The benchmark binary (normally launched through perfbench/run.py).
 *
 *   perfbench <workload> [--seed N] [--seconds S] [--trace 0|1]
 *             [--goldens FILE] [--out DIR] [--rev REV]
 *   perfbench goldens [--seed N]     print golden digests for a seed
 *   perfbench selftest [NAME...]     the benchmark's own tests; NAMEs
 *                                    are metric names to validate
 *
 * Workloads: kernel-mix, sweep-repeat, daemon-rpc.  Untraced runs report
 * end-to-end metrics (medians over repetitions); --trace 1 runs one
 * traced repetition of every workload and reports per-layer metrics,
 * plus trace.overhead and trace.reconcile_err of the named workload.
 * Every output starts with a run manifest; the last stdout line is one
 * JSON object {correct, attempted, failed, metrics}.
 *
 * Scratch state lives under .bench_tmp/p<pid>/ in the working directory
 * (one fresh subdirectory per repetition); directories of killed runs
 * are swept on start.
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include "harness.hh"
#include "workloads.hh"

namespace
{

using namespace pb;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench kernel-mix|sweep-repeat|daemon-rpc "
                 "[--seed N] [--seconds S] [--trace 0|1] [--goldens FILE] "
                 "[--out DIR] [--rev REV]\n"
                 "       perfbench goldens [--seed N]\n"
                 "       perfbench selftest [METRIC-NAME...]\n",
                 why);
    std::exit(2);
}

std::string
absolute(const std::string &p)
{
    char buf[PATH_MAX];
    return ::realpath(p.c_str(), buf) ? std::string(buf) : std::string();
}

std::string workDir;

void
removeWorkDir()
{
    if (!workDir.empty())
        removeTree(workDir);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    }
    return "unknown";
}

void
printManifest(const RunArgs &a, const std::string &rev)
{
    std::printf("manifest {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"rev\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"flags\": \"%s\", \"cpu\": \"%s\", \"nproc\": %u, "
                "\"load_threads\": %u}\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace ? 1 : 0, rev.c_str(), PB_COMPILER,
                PB_BUILD_TYPE, PB_FLAGS, cpuModel().c_str(),
                std::thread::hardware_concurrency(), loadThreads());
}

void
printResult(const Outcome &out)
{
    for (const Metric &m : out.metrics)
        std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &f : out.failures)
        std::printf("FAILED: %s\n", f.c_str());
    std::printf("fail_ratio = %.6g (%llu of %llu checked operations)\n",
                out.attempted ? static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                              : 0.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                out.failed == 0 && out.attempted > 0 ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/**
 * Traced invocation: one traced repetition of every workload, so every
 * per-layer metric is present; the named workload's checks, overhead
 * and reconcile error are the ones reported.
 */
Outcome
runTraced(const RunArgs &args)
{
    using TraceFn = TraceWalls (*)(const RunArgs &, Tracer &, Outcome &);
    const std::pair<const char *, TraceFn> all[] = {
        {"kernel-mix", traceKernelMix},
        {"sweep-repeat", traceSweepRepeat},
        {"daemon-rpc", traceDaemonRpc},
    };
    Outcome out;
    Tracer tracer;
    int rep = 0;
    for (const auto &[name, fn] : all) {
        tracer.setRep(rep++);
        const bool mine = args.workload == name;
        Outcome other;
        const TraceWalls w = fn(args, tracer, mine ? out : other);
        if (!mine) {
            out.metrics.insert(out.metrics.end(), other.metrics.begin(),
                               other.metrics.end());
            for (const std::string &f : other.failures)
                std::printf("note: %s check failed: %s\n", name, f.c_str());
        }
        std::printf("%s: traced %.3f s, untraced %.3f s, unattributed "
                    "%.1f%% of traced wall (bound %.0f%%)\n", name,
                    w.traced, w.untraced, 100.0 * w.reconcileErr,
                    100.0 * kReconcileBound);
        if (mine) {
            out.add("trace.overhead", w.traced / w.untraced, "ratio");
            out.add("trace.reconcile_err", w.reconcileErr, "ratio");
        }
    }
    const std::string path = args.outDir + "/trace-" + args.workload +
                             "-" + std::to_string(args.seed) + ".jsonl";
    tracer.write(path);
    std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                path.c_str());
    for (const auto &[layer, s] : selfSecondsByName(tracer.spans()))
        std::printf("self %-28s %10.4f s\n", layer.c_str(), s);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("missing workload");
    const std::string cmd = argv[1];

    if (cmd == "selftest") {
        std::vector<std::string> names(argv + 2, argv + argc);
        return selfTest(names);
    }

    RunArgs args;
    args.workload = cmd;
    std::string rev = "unknown", goldens, outDir = ".bench_out";
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--seed") {
            args.seed = std::strtoull(v, &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(v, &end);
            if (args.seconds <= 0.0 || args.seconds > 600.0)
                usage("--seconds must be in (0, 600]");
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace takes 0 or 1");
            args.trace = v[0] == '1';
        } else if (flag == "--goldens") {
            goldens = v;
        } else if (flag == "--out") {
            outDir = v;
        } else if (flag == "--rev") {
            rev = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end != '\0')
            usage(("bad value for " + flag).c_str());
    }

    if (cmd == "goldens") {
        auto cells = kernelGoldens(args.seed);
        for (auto &c : sweepGoldens(args.seed))
            cells.push_back(std::move(c));
        std::printf("{\n  \"seed\": %llu,\n  \"cells\": {\n",
                    static_cast<unsigned long long>(args.seed));
        for (std::size_t i = 0; i < cells.size(); ++i)
            std::printf("    \"%s\": \"%s\"%s\n", cells[i].first.c_str(),
                        cells[i].second.c_str(),
                        i + 1 < cells.size() ? "," : "");
        std::printf("  }\n}\n");
        return 0;
    }
    if (cmd != "kernel-mix" && cmd != "sweep-repeat" && cmd != "daemon-rpc")
        usage(("unknown workload " + cmd).c_str());

#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench: refusing to time a build without "
                         "optimization (__OPTIMIZE__ undefined)\n");
    return 3;
#endif

    if (!goldens.empty()) {
        args.goldensPath = absolute(goldens);
        if (args.goldensPath.empty())
            usage(("cannot read goldens file " + goldens).c_str());
    }
    ::mkdir(outDir.c_str(), 0755);
    args.outDir = absolute(outDir);
    if (args.outDir.empty())
        usage(("cannot create output directory " + outDir).c_str());

    // Private scratch root; killed runs' directories are swept first.
    ::mkdir(".bench_tmp", 0755);
    const std::size_t swept = sweepStaleWorkDirs(".bench_tmp");
    const std::string mine =
        ".bench_tmp/p" + std::to_string(static_cast<long>(::getpid()));
    removeTree(mine);
    if (::mkdir(mine.c_str(), 0755) != 0)
        usage(("cannot create " + mine).c_str());
    workDir = absolute(mine);
    // Registered before the harness registers its exit handlers, so it
    // runs after them (atexit is LIFO) and also removes what they write.
    std::atexit(removeWorkDir);
    if (::chdir(workDir.c_str()) != 0)
        usage("cannot enter the scratch directory");
    rc::bench::setExitOnQuarantine(false);

    printManifest(args, rev);
    if (swept)
        std::printf("swept %zu stale scratch directories\n", swept);
    std::fflush(stdout);

    Outcome out;
    if (args.trace)
        out = runTraced(args);
    else if (cmd == "kernel-mix")
        out = runKernelMix(args);
    else if (cmd == "sweep-repeat")
        out = runSweepRepeat(args);
    else
        out = runDaemonRpc(args);

    const std::uint64_t quarantined = rc::bench::quarantinedRunsTotal();
    for (std::uint64_t i = 0; i < quarantined; ++i)
        out.check(false, "harness quarantined a run");
    printResult(out);
    return 0;
}
