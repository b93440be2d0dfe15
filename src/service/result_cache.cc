#include "service/result_cache.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/filelock.hh"
#include "common/log.hh"
#include "common/tmpfile.hh"
#include "snapshot/serializer.hh"

namespace rc::svc
{

namespace
{

constexpr const char *indexName = "cache.index";
constexpr const char *indexHeader = "# rc result cache index v1\n";

/** In-memory entries kept before the memo map is wholesale dropped; a
 *  crude bound, but eviction costs only a disk re-read. */
constexpr std::size_t memoCapacity = 4096;

/** Parse the 16-hex digest out of "memo-<digest>.bin" (0 on mismatch). */
bool
digestFromBlobName(const std::string &name, std::uint64_t &digest)
{
    if (name.size() != 4 + 1 + 16 + 4 || name.rfind("memo-", 0) != 0 ||
        name.substr(name.size() - 4) != ".bin")
        return false;
    char *end = nullptr;
    const std::string hex = name.substr(5, 16);
    digest = std::strtoull(hex.c_str(), &end, 16);
    return end != nullptr && *end == '\0';
}

} // namespace

ResultCache::ResultCache(const std::string &dir) : dir(dir)
{
    if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST)
        throwSimError(SimError::Kind::Io,
                      "cannot create cache directory '%s': %s",
                      dir.c_str(), std::strerror(errno));
    recover();
}

std::string
ResultCache::blobPath(std::uint64_t digest) const
{
    return dir + "/memo-" + digestHex(digest) + ".bin";
}

void
ResultCache::recover()
{
    // Blobs are the source of truth: a crash can leave the index behind
    // the directory (rename landed, append did not) or leave *.tmp
    // leftovers of a write that never completed.  Adopt the former,
    // delete the latter once their writer is dead (a live sibling may
    // be mid-store), then rewrite the index to match reality.
    std::unordered_set<std::uint64_t> indexed;
    {
        std::FILE *f = std::fopen((dir + "/" + indexName).c_str(), "rb");
        if (f) {
            char line[128];
            while (std::fgets(line, sizeof(line), f)) {
                unsigned long long digest = 0;
                if (std::sscanf(line, "entry digest=%llx", &digest) == 1)
                    indexed.insert(digest);
            }
            std::fclose(f);
        }
    }

    DIR *d = ::opendir(dir.c_str());
    if (!d)
        throwSimError(SimError::Kind::Io,
                      "cannot scan cache directory '%s': %s", dir.c_str(),
                      std::strerror(errno));
    while (struct dirent *ent = ::readdir(d)) {
        std::uint64_t digest = 0;
        if (!digestFromBlobName(ent->d_name, digest))
            continue;
        known.insert(digest);
        if (!indexed.count(digest))
            ++counters.recovered;
    }
    ::closedir(d);
    sweepDeadTmps(dir);
    persistIndex();
}

bool
ResultCache::lookup(const RunRequest &req, RunResult &out)
{
    const std::uint64_t digest = requestDigest(req);
    const std::vector<std::uint8_t> probe = canonicalBytes(req);
    {
        std::lock_guard<std::mutex> lock(mu);
        const auto resident = memo.find(digest);
        if (resident != memo.end() && resident->second.key == probe) {
            out = resident->second.result;
            ++counters.hits;
            ++counters.memoryHits;
            return true;
        }
        if (!known.count(digest)) {
            ++counters.misses;
            return false;
        }
    }
    const std::string path = blobPath(digest);
    try {
        Deserializer d(path);
        d.beginSection("memo");
        if (d.getU64() != digest)
            throwSimError(SimError::Kind::Snapshot,
                          "blob '%s' carries a foreign digest",
                          path.c_str());
        const std::string key = d.getString();
        if (key.size() != probe.size() ||
            std::memcmp(key.data(), probe.data(), probe.size()) != 0) {
            // A digest collision, not corruption: the blob is some other
            // request's valid entry.  Miss without unlinking it.
            std::lock_guard<std::mutex> lock(mu);
            ++counters.misses;
            return false;
        }
        d.beginSection("result");
        out = loadRunResult(d);
        d.endSection("result");
        d.endSection("memo");
    } catch (const SimError &) {
        // Torn, truncated or bit-flipped blob: drop it and re-simulate.
        // Never a wrong answer, never a crash.
        ::unlink(path.c_str());
        std::lock_guard<std::mutex> lock(mu);
        known.erase(digest);
        memo.erase(digest);
        ++counters.corruptDropped;
        ++counters.misses;
        return false;
    }
    std::lock_guard<std::mutex> lock(mu);
    if (memo.size() >= memoCapacity)
        memo.clear();
    memo[digest] = MemoEntry{probe, out};
    ++counters.hits;
    return true;
}

void
ResultCache::store(const RunRequest &req, const RunResult &res)
{
    const std::uint64_t digest = requestDigest(req);
    const std::vector<std::uint8_t> key = canonicalBytes(req);
    Serializer s;
    s.beginSection("memo");
    s.putU64(digest);
    s.putString(std::string(key.begin(), key.end()));
    s.beginSection("result");
    saveRunResult(s, res);
    s.endSection("result");
    s.endSection("memo");
    try {
        s.writeFile(blobPath(digest));
    } catch (const SimError &err) {
        // Failing to persist costs a future re-simulation, nothing else.
        warn("result cache: cannot persist %s: %s",
             digestHex(digest).c_str(), err.what());
        return;
    }
    appendIndex(digest);
    std::lock_guard<std::mutex> lock(mu);
    known.insert(digest);
    if (memo.size() >= memoCapacity)
        memo.clear();
    memo[digest] = MemoEntry{key, res};
    ++counters.stores;
}

void
ResultCache::evictMemory(std::uint64_t digest)
{
    std::lock_guard<std::mutex> lock(mu);
    memo.erase(digest);
}

void
ResultCache::appendIndex(std::uint64_t digest)
{
    const std::string path = dir + "/" + indexName;
    const bool fresh = ::access(path.c_str(), F_OK) != 0;
    std::FILE *f = std::fopen(path.c_str(), "ab");
    if (!f) {
        warn("result cache: cannot open index '%s': %s", path.c_str(),
             std::strerror(errno));
        return;
    }
    char line[64];
    std::snprintf(line, sizeof(line), "entry digest=%s\n",
                  digestHex(digest).c_str());
    try {
        // flock orders this append against other daemon processes
        // sharing the directory; startup recovery tolerates a torn tail
        // anyway, but well-formed records make post-mortems readable.
        ScopedFileLock flock(::fileno(f));
        if (fresh)
            std::fputs(indexHeader, f);
        std::fputs(line, f);
        std::fflush(f);
        ::fsync(::fileno(f));
    } catch (const SimError &err) {
        warn("result cache: index append skipped: %s", err.what());
    }
    std::fclose(f);
}

void
ResultCache::persistIndex()
{
    std::unordered_set<std::uint64_t> snapshot;
    {
        std::lock_guard<std::mutex> lock(mu);
        snapshot = known;
    }
    const std::string path = dir + "/" + indexName;
    const std::string tmp = uniqueTmpPath(path);
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("result cache: cannot rewrite index '%s': %s", path.c_str(),
             std::strerror(errno));
        return;
    }
    std::fputs(indexHeader, f);
    for (const std::uint64_t digest : snapshot)
        std::fprintf(f, "entry digest=%s\n", digestHex(digest).c_str());
    const bool ok = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    std::fclose(f);
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        warn("result cache: cannot land the compacted index '%s'",
             path.c_str());
    }
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return known.size();
}

ResultCacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

} // namespace rc::svc
