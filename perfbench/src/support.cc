#include "support.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include <dirent.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include "snapshot/serializer.hh"

namespace pb
{

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
runResultDigest(const rc::RunResult &r)
{
    rc::Serializer s;
    rc::saveRunResult(s, r);
    const std::vector<std::uint8_t> bytes = s.image();
    return fnv1a(bytes.data(), bytes.size());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool
supportedPercentile(std::vector<double> v, double want, double &value,
                    double &used)
{
    static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    value = 0.0;
    used = 0.0;
    if (v.empty())
        return false;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    for (double p : kLadder) {
        if (p > want)
            continue;
        // Nearest rank: the value at 1-based rank ceil(p/100 * n); the
        // samples strictly beyond it are the n - rank above.
        const double rank = std::max(1.0, std::ceil(p / 100.0 * n));
        if (n - rank >= 10.0) {
            value = v[static_cast<std::size_t>(rank) - 1];
            used = p;
            return true;
        }
    }
    return false;
}

namespace
{

/** One run of the reference cache simulation on the calling thread. */
double
referenceLoop()
{
    constexpr std::size_t kCores = 8, kL1Sets = 64, kL1Ways = 8,
                          kL2Sets = 1024, kL2Ways = 16;
    // Warm across calls, like the simulator's own arrays.
    thread_local std::vector<std::uint64_t> l1Tag(
        kCores * kL1Sets * kL1Ways),
        l2Tag(kL2Sets * kL2Ways);
    thread_local std::vector<std::uint32_t> l1Use(l1Tag.size()),
        l2Use(l2Tag.size());
    std::uint64_t x[kCores];
    for (std::size_t c = 0; c < kCores; ++c)
        x[c] = 0x9e3779b97f4a7c15ull * (c + 1);
    std::uint32_t clock = 0;
    std::uint64_t hits = 0;
    // One way-scan: hit index or -1, and the LRU victim.
    const auto scan = [](const std::uint64_t *tag, const std::uint32_t *use,
                         std::size_t ways, std::uint64_t line,
                         std::size_t &victim) {
        victim = 0;
        for (std::size_t k = 0; k < ways; ++k) {
            if (tag[k] == line)
                return static_cast<long>(k);
            if (use[k] < use[victim])
                victim = k;
        }
        return -1L;
    };
    const std::uint64_t t0 = nowNs();
    for (int i = 0; i < 300'000; ++i) {
        const std::size_t c = static_cast<std::size_t>(i) % kCores;
        std::uint64_t &s = x[c];
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        // Mostly a small per-stream working set, sometimes a wide one.
        const std::uint64_t line = (s & 0xffff) < 50000
                                       ? ((s >> 20) & 0x3ff) + c * 4096
                                       : (s >> 20) & 0x3ffff;
        ++clock;
        const std::size_t s1 = (c * kL1Sets + line % kL1Sets) * kL1Ways;
        std::size_t v = 0;
        long hit = scan(&l1Tag[s1], &l1Use[s1], kL1Ways, line, v);
        if (hit >= 0) {
            l1Use[s1 + hit] = clock;
            ++hits;
            continue;
        }
        l1Tag[s1 + v] = line;
        l1Use[s1 + v] = clock;
        const std::size_t s2 = (line % kL2Sets) * kL2Ways;
        hit = scan(&l2Tag[s2], &l2Use[s2], kL2Ways, line, v);
        if (hit >= 0) {
            l2Use[s2 + hit] = clock;
            ++hits;
        } else {
            l2Tag[s2 + v] = line;
            l2Use[s2 + v] = clock;
        }
    }
    const std::uint64_t t1 = nowNs();
    asm volatile("" : : "g"(hits) : "memory");
    return secondsBetween(t0, t1);
}

} // namespace

double
referenceSeconds(unsigned threads, unsigned samples)
{
    std::vector<double> runs;
    for (unsigned k = 0; k < samples; ++k) {
        if (threads <= 1) {
            runs.push_back(referenceLoop());
            continue;
        }
        std::vector<double> secs(threads, 0.0);
        std::vector<std::thread> pool;
        for (unsigned t = 1; t < threads; ++t)
            pool.emplace_back([&secs, t] { secs[t] = referenceLoop(); });
        secs[0] = referenceLoop();
        for (std::thread &th : pool)
            th.join();
        double sum = 0.0;
        for (double v : secs)
            sum += v;
        runs.push_back(sum / threads);
    }
    return median(runs);
}

double
peakRssMb()
{
    // VmHWM is this address space's high-water mark; getrusage's
    // ru_maxrss would also carry the launching process's peak across
    // exec.
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
processCpuSeconds()
{
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                        c == '-';
        if (!ok)
            return false;
    }
    return true;
}

void
Outcome::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (std::find(failures.begin(), failures.end(), what) ==
            failures.end())
            failures.push_back(what);
    }
}

Goldens
readGoldens(const std::string &path)
{
    Goldens g;
    std::ifstream in(path);
    if (!in)
        return g;
    std::string line;
    while (std::getline(in, line)) {
        // Lines of the form   "name": "hex",
        const std::size_t a = line.find('"');
        const std::size_t b = a == std::string::npos
                                  ? a : line.find('"', a + 1);
        const std::size_t c = b == std::string::npos
                                  ? b : line.find('"', b + 1);
        const std::size_t d = c == std::string::npos
                                  ? c : line.find('"', c + 1);
        if (d == std::string::npos)
            continue;
        g[line.substr(a + 1, b - a - 1)] = line.substr(c + 1, d - c - 1);
    }
    return g;
}

int
Tracer::open(const char *name)
{
    Span s;
    s.name = name;
    s.parent = stack.empty() ? -1 : stack.back();
    s.rep = curRep;
    s.start = nowNs();
    all.push_back(s);
    const int id = static_cast<int>(all.size()) - 1;
    stack.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    all[static_cast<std::size_t>(id)].end = nowNs();
    if (!stack.empty() && stack.back() == id)
        stack.pop_back();
}

namespace
{

/** Per-span self seconds: duration minus the union of its children. */
std::vector<double>
selfSeconds(const std::vector<Span> &all)
{
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
        all.size());
    for (const Span &s : all) {
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].push_back(
                {s.start, s.end});
    }
    std::vector<double> self(all.size(), 0.0);
    for (std::size_t i = 0; i < all.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0, curS = 0, curE = 0;
        bool open = false;
        for (auto [s, e] : iv) {
            s = std::max(s, all[i].start);
            e = std::min(e, all[i].end);
            if (e <= s)
                continue;
            if (open && s <= curE) {
                curE = std::max(curE, e);
            } else {
                if (open)
                    covered += curE - curS;
                curS = s;
                curE = e;
                open = true;
            }
        }
        if (open)
            covered += curE - curS;
        const std::uint64_t dur = all[i].end - all[i].start;
        self[i] = static_cast<double>(dur - std::min(dur, covered)) * 1e-9;
    }
    return self;
}

} // namespace

std::map<std::string, double>
selfSecondsByName(const std::vector<Span> &all)
{
    const std::vector<double> self = selfSeconds(all);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < all.size(); ++i)
        out[all[i].name] += self[i];
    return out;
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream os(path);
    for (const Span &s : all) {
        os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
           << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
           << ",\"rep\":" << s.rep << "}\n";
    }
}

double
reconcileError(const std::vector<Span> &all, int root)
{
    const std::vector<double> self = selfSeconds(all);
    // Spans belonging to the root's subtree, excluding the root itself.
    std::vector<char> inTree(all.size(), 0);
    inTree[static_cast<std::size_t>(root)] = 1;
    double attributed = 0.0;
    for (std::size_t i = static_cast<std::size_t>(root) + 1; i < all.size();
         ++i) {
        if (all[i].parent >= 0 &&
            inTree[static_cast<std::size_t>(all[i].parent)]) {
            inTree[i] = 1;
            attributed += self[i];
        }
    }
    const Span &r = all[static_cast<std::size_t>(root)];
    const double wall = secondsBetween(r.start, r.end);
    return wall > 0.0 ? std::fabs(wall - attributed) / wall : 0.0;
}

void
removeTree(const std::string &path)
{
    struct stat st;
    if (::lstat(path.c_str(), &st) != 0)
        return;
    if (S_ISDIR(st.st_mode)) {
        if (DIR *d = ::opendir(path.c_str())) {
            while (struct dirent *e = ::readdir(d)) {
                const std::string name = e->d_name;
                if (name != "." && name != "..")
                    removeTree(path + "/" + name);
            }
            ::closedir(d);
        }
        ::rmdir(path.c_str());
    } else {
        ::unlink(path.c_str());
    }
}

namespace
{
int repCounter = 0;
}

RepDir::RepDir(const std::string &tag)
{
    dir = "r" + std::to_string(repCounter++) + "-" + tag;
    removeTree(dir);
    if (::mkdir(dir.c_str(), 0755) != 0) {
        std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                     dir.c_str(), std::strerror(errno));
        std::exit(2);
    }
}

RepDir::~RepDir()
{
    removeTree(dir);
}

std::size_t
sweepStaleWorkDirs(const std::string &root)
{
    std::size_t removed = 0;
    DIR *d = ::opendir(root.c_str());
    if (!d)
        return 0;
    std::vector<std::string> stale;
    while (struct dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name.size() < 2 || name[0] != 'p')
            continue;
        char *endp = nullptr;
        const long pid = std::strtol(name.c_str() + 1, &endp, 10);
        if (*endp != '\0' || pid <= 0)
            continue;
        // kill(pid, 0) fails with ESRCH once the owner is gone.
        if (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH)
            stale.push_back(root + "/" + name);
    }
    ::closedir(d);
    for (const std::string &p : stale) {
        removeTree(p);
        ++removed;
    }
    return removed;
}

unsigned
loadThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(hw == 0 ? 1u : hw, 4u));
}

} // namespace pb
