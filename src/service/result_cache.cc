#include "service/result_cache.hh"

#include <cstring>
#include <vector>

#include "common/log.hh"
#include "snapshot/serializer.hh"

namespace rc::svc
{

namespace
{

/** In-memory entries kept before the memo map is wholesale dropped; a
 *  crude bound, but eviction costs only a disk re-read. */
constexpr std::size_t memoCapacity = 4096;

} // namespace

ResultCache::ResultCache(const std::string &dir)
    : blobs(dir, "memo", "cache.index", "# rc result cache index v1\n",
            "result cache")
{
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
    }
    if (!blobs.contains(digest)) {
        std::lock_guard<std::mutex> lock(mu);
        ++counters.misses;
        return false;
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
        blobs.drop(digest);
        std::lock_guard<std::mutex> lock(mu);
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
    blobs.add(digest);
    std::lock_guard<std::mutex> lock(mu);
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

ResultCacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    ResultCacheStats out = counters;
    out.recovered = blobs.recovered();
    return out;
}

} // namespace rc::svc
