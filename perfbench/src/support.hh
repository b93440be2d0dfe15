/**
 * @file
 * Shared pieces of the repository benchmark: clocks, span recording,
 * robust statistics, digests, per-repetition scratch directories and the
 * result/metric model every workload reports through.
 */

#ifndef PERFBENCH_SUPPORT_HH
#define PERFBENCH_SUPPORT_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/run_result.hh"

namespace pb
{

/** Monotonic host time in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(std::uint64_t a, std::uint64_t b)
{
    return static_cast<double>(b - a) * 1e-9;
}

/** FNV-1a 64 over @p len bytes, continuing from @p h. */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/** FNV-1a 64 of a string. */
inline std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ull)
{
    return fnv1a(s.data(), s.size(), h);
}

/** 16-hex-digit spelling. */
std::string hex16(std::uint64_t v);

/** Digest of a RunResult's canonical snapshot encoding. */
std::uint64_t runResultDigest(const rc::RunResult &r);

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile that is only reported when at least ten
 * samples lie strictly beyond it: for @p want (e.g. 99) the helper
 * returns the highest percentile <= @p want from the ladder
 * {99.9, 99, 95, 90, 75, 50} that has that support, and stores it in
 * @p used.  Returns false (used = 0) when not even p50 has support.
 */
bool supportedPercentile(std::vector<double> v, double want, double &value,
                         double &used);

/**
 * Host-speed reference: times a fixed two-level set-associative LRU
 * cache simulation over eight xorshift reference streams, on the calling
 * thread and @p threads - 1 more at once, and returns the mean host
 * seconds of one run (a workload using N threads is scaled by a
 * reference loading N); with @p samples > 1, the median of that many
 * such runs, so a brief stall of the host does not skew the scale.  It does the simulator's kind of
 * work (tag scans, recency updates, data-dependent branches) in code the
 * benchmark owns, so it does not change when the simulator does.  On a
 * shared host whose speed drifts by tens of percent over minutes, a unit
 * of work's host time scaled by kNominalRefS / (adjacent reference time)
 * stays steady where the raw time does not.
 */
double referenceSeconds(unsigned threads = 1, unsigned samples = 1);

/**
 * The reference's time on an unloaded run of the benchmark's reference
 * host.  Host seconds times kNominalRefS / (reference seconds) are
 * "reference seconds", in which the gated throughput and set-up metrics
 * are reported; raw host figures are printed beside them.
 */
constexpr double kNominalRefS = 0.015;

/** Peak resident set size of this process in MB. */
double peakRssMb();

/** User + system CPU seconds consumed by this process so far. */
double processCpuSeconds();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** True when @p name matches [A-Za-z0-9_.-]+. */
bool validMetricName(const std::string &name);

/** What one workload invocation reports. */
struct Outcome
{
    std::uint64_t attempted = 0; //!< operations whose output was checked
    std::uint64_t failed = 0;    //!< errored or mismatched operations
    std::vector<std::string> failures; //!< names of the failed checks
    std::vector<Metric> metrics;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back(Metric{name, value, unit});
    }

    /** Record one checked operation; @p ok false names a failure. */
    void check(bool ok, const std::string &what);
};

/** The seed the recorded goldens belong to. */
constexpr std::uint64_t kDefaultSeed = 42;

/** Command-line arguments shared by every workload. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string goldensPath; //!< absolute; "" = no goldens file
    std::string outDir;      //!< absolute; trace files land here
};

/** Golden digests recorded at kDefaultSeed: cell name -> hex digest. */
using Goldens = std::map<std::string, std::string>;

/** Read the flat `"name": "hex"` pairs of the goldens file. */
Goldens readGoldens(const std::string &path);

/**
 * A span recorded by the benchmark around one call into a module.
 * Spans live in memory and are written out once, at the end.
 */
struct Span
{
    const char *name = ""; //!< "<layer>.<what>"; layer = module name
                           //!< (a string literal: spans are cheap)
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    int parent = -1;       //!< index of the enclosing span, -1 = root
    int rep = 0;           //!< repetition id
};

/** In-memory span recorder (single thread). */
class Tracer
{
  public:
    /** Open a span under the innermost open one; returns its index. */
    int open(const char *name);

    /** Close span @p id (must be the innermost open span). */
    void close(int id);

    /** Repetition id stamped on spans opened from now on. */
    void setRep(int rep) { curRep = rep; }

    const std::vector<Span> &spans() const { return all; }

    /** Write every span as JSON lines to @p path. */
    void write(const std::string &path) const;

  private:
    std::vector<Span> all;
    std::vector<int> stack;
    int curRep = 0;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, const char *name)
        : tracer(t), id(t ? t->open(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer)
            tracer->close(id);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer;
    int id;
};

/**
 * Self time of every span (duration minus the union of its children's
 * intervals), summed per name.
 */
std::map<std::string, double> selfSecondsByName(const std::vector<Span> &s);

/**
 * Share of span @p root's wall time that its descendants do not account
 * for: |wall - sum of their self times| / wall.  The benchmark states
 * kReconcileBound as its error.
 */
double reconcileError(const std::vector<Span> &s, int root);

/** Largest reconcile error the benchmark accepts as reconciled. */
constexpr double kReconcileBound = 0.10;

/**
 * A fresh scratch directory for one repetition, removed (recursively)
 * on destruction.  Paths are relative to the working directory so Unix
 * socket paths inside it stay short.
 */
class RepDir
{
  public:
    explicit RepDir(const std::string &tag);
    ~RepDir();
    RepDir(const RepDir &) = delete;
    RepDir &operator=(const RepDir &) = delete;

    std::string file(const std::string &name) const
    {
        return dir + "/" + name;
    }

  private:
    std::string dir;
};

/** Remove @p path and everything under it; missing paths are fine. */
void removeTree(const std::string &path);

/**
 * Delete work directories named `p<pid>` under @p root whose process
 * no longer exists (left behind by killed runs).
 * @return how many were removed.
 */
std::size_t sweepStaleWorkDirs(const std::string &root);

/** Worker threads the benchmark may use: min(nproc, 4), at least 1. */
unsigned loadThreads();

/**
 * Loop repetitions of @p rep until their summed measured seconds reach
 * @p seconds and at least @p min_reps ran.  @p rep returns the seconds
 * it measured.
 */
template <class F>
int
repeatFor(double seconds, int min_reps, F &&rep)
{
    double spent = 0.0;
    int n = 0;
    while (n < min_reps || spent < seconds) {
        spent += rep(n);
        ++n;
    }
    return n;
}

} // namespace pb

#endif // PERFBENCH_SUPPORT_HH
