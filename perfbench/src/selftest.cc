/**
 * @file
 * The benchmark's own tests:
 *  - probe fidelity: on a short window the kernel-mix layer probe
 *    reproduces Cmp's LLC stats digest exactly for conv, RC and NCID;
 *  - metric names given on the command line match [A-Za-z0-9_.-]+;
 *  - the percentile helper only reports percentiles with at least ten
 *    samples beyond them;
 *  - span self times and the reconcile error;
 *  - stale scratch directories of dead processes are swept, live ones
 *    are kept.
 */

#include <cmath>
#include <cstdio>
#include <string>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "workloads.hh"

namespace pb
{

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += !ok;
}

void
probeFidelity()
{
    using namespace rc;
    const Cycle warmup = 20'000, measure = 80'000;
    const std::uint64_t seed = 7;
    Mix homo_;
    homo_.apps.assign(8, "mcf");
    const Mix homo = homo_;
    const Mix hetero = makeMixes(1, 8, 7).front();
    const std::pair<const char *, SystemConfig> cfgs[] = {
        {"conv-8MB", baselineSystem(8)},
        {"RC-4/1", reuseSystem(4, 1, 0, 8)},
        {"NCID-8/4", ncidSystem(8, 4, 8)},
    };
    for (const Mix *mix : {&homo, &hetero}) {
        for (const auto &[name, cfg] : cfgs) {
            const std::uint64_t p = probeDigest(cfg, *mix, seed, warmup,
                                                measure);
            const std::uint64_t c = cmpDigest(cfg, *mix, seed, warmup,
                                              measure);
            expect(p == c, std::string("probe digest == Cmp digest: ") +
                               name + " on " + mix->label());
        }
    }
}

void
percentiles()
{
    const auto ramp = [](std::size_t n) {
        std::vector<double> v;
        for (std::size_t i = 1; i <= n; ++i)
            v.push_back(static_cast<double>(i));
        return v;
    };
    double value = 0.0, used = 0.0;
    expect(supportedPercentile(ramp(1000), 99, value, used) && used == 99 &&
               value == 990,
           "p99 of 1000 samples is rank 990 with 10 beyond");
    expect(supportedPercentile(ramp(999), 99, value, used) && used == 95,
           "999 samples fall back from p99 to p95");
    expect(supportedPercentile(ramp(20), 99, value, used) && used == 50 &&
               value == 10,
           "20 samples support only p50");
    expect(!supportedPercentile(ramp(19), 50, value, used) && used == 0,
           "19 samples support no percentile");
}

void
spans()
{
    // root [0,100] > child [10,60] > grandchild [20,30], and two
    // overlapping siblings [70,80] and [75,90] under the root.
    const std::vector<Span> s = {
        {"root", 0, 100, -1, 0},
        {"layer.child", 10, 60, 0, 0},
        {"layer.grandchild", 20, 30, 1, 0},
        {"layer.a", 70, 80, 0, 0},
        {"layer.b", 75, 90, 0, 0},
    };
    const auto self = selfSecondsByName(s);
    expect(std::fabs(self.at("layer.child") - 40e-9) < 1e-15 &&
               std::fabs(self.at("layer.grandchild") - 10e-9) < 1e-15 &&
               std::fabs(self.at("root") - 30e-9) < 1e-15,
           "self time = duration minus the union of its children");
    // Attributed 40 + 10 + 10 + 15 = 75 of a 100 ns wall.
    expect(std::fabs(reconcileError(s, 0) - 0.25) < 1e-12,
           "reconcile error is the unattributed share of the wall");
}

void
staleSweep()
{
    const std::string root = ".selftest_tmp";
    removeTree(root);
    ::mkdir(root.c_str(), 0755);
    const pid_t child = ::fork();
    if (child == 0)
        ::_exit(0);
    ::waitpid(child, nullptr, 0);
    const std::string dead = root + "/p" + std::to_string(child);
    const std::string live = root + "/p" + std::to_string(::getpid());
    ::mkdir(dead.c_str(), 0755);
    ::mkdir((dead + "/feed").c_str(), 0755);
    ::mkdir(live.c_str(), 0755);
    const std::size_t n = sweepStaleWorkDirs(root);
    struct stat st;
    expect(n == 1 && ::stat(dead.c_str(), &st) != 0 &&
               ::stat(live.c_str(), &st) == 0,
           "stale scratch directory swept, live one kept");
    removeTree(root);
}

} // namespace

int
selfTest(const std::vector<std::string> &names)
{
    for (const std::string &n : names)
        expect(validMetricName(n), "metric name '" + n + "' is valid");
    percentiles();
    spans();
    staleSweep();
    probeFidelity();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures ? 1 : 0;
}

} // namespace pb
