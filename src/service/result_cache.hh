/**
 * @file
 * Persistent content-addressed result cache for the sweep daemon.
 *
 * Layout under the cache directory:
 *
 *   memo-<digest16hex>.bin   one completed result per blob, written
 *                            atomically (tmp + fsync + rename, the
 *                            snapshot discipline) so a crash mid-write
 *                            can never tear an entry under its final
 *                            name;
 *   cache.index              append-only bookkeeping of stored digests,
 *                            flock-guarded so concurrent writers (a
 *                            restarted daemon overlapping its draining
 *                            predecessor) never interleave torn lines.
 *
 * Every blob carries the full canonical request bytes next to the
 * result: a lookup verifies the container CRC AND compares those key
 * bytes against the probe before returning anything, so neither a
 * corrupted blob nor a digest collision can ever surface a wrong
 * answer — both silently demote to a cache miss and a re-simulation,
 * and corrupt blobs are unlinked on detection.
 *
 * Repeat hits are served from a bounded in-memory copy of decoded
 * entries; the blobs stay the durable truth (evicting the memory layer
 * only costs a verified disk re-read, never an answer).
 *
 * The directory index, its append discipline and startup recovery are
 * common/blob_index.hh's, shared with the feed cache.
 */

#ifndef RC_SERVICE_RESULT_CACHE_HH
#define RC_SERVICE_RESULT_CACHE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/blob_index.hh"
#include "service/run_request.hh"
#include "sim/run_result.hh"

namespace rc::svc
{

/** Monotonic counters exported into the daemon's stats JSON. */
struct ResultCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t memoryHits = 0; //!< hits served without touching disk
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t corruptDropped = 0; //!< blobs failing CRC/key checks
    std::uint64_t recovered = 0;      //!< entries adopted at startup
};

/** The persistent store; thread-safe. */
class ResultCache
{
  public:
    /**
     * Open (creating if needed) the cache under @p dir and run startup
     * recovery.  Throws SimError(Io) when the directory cannot be
     * created or scanned.
     */
    explicit ResultCache(const std::string &dir);

    /**
     * Look @p req up.
     * @return true and fill @p out only when a blob for the digest
     *         exists, passes its CRC, and its canonical key bytes match
     *         @p req exactly; any defect demotes to a miss.
     */
    bool lookup(const RunRequest &req, RunResult &out);

    /** Persist @p res for @p req (atomic blob + index append). */
    void store(const RunRequest &req, const RunResult &res);

    /** Number of entries currently believed present. */
    std::size_t size() const { return blobs.size(); }

    /** Counter snapshot (taken under the cache lock). */
    ResultCacheStats stats() const;

    /** The directory index (the daemon compacts it on drain). */
    const BlobIndex &index() const { return blobs; }

    /** Blob path for @p digest (tests and fault injection). */
    std::string blobPath(std::uint64_t digest) const
    {
        return blobs.blobPath(digest);
    }

    /**
     * Drop the in-memory copy of @p digest so the next lookup re-reads
     * (and re-verifies) the blob.  Fault injection and tests use this to
     * exercise the disk path; correctness never depends on it.
     */
    void evictMemory(std::uint64_t digest);

    const std::string &directory() const { return blobs.directory(); }

  private:
    /** A decoded entry resident in memory; blobs stay the durable
     *  truth, this only spares repeat hits the disk round trip. */
    struct MemoEntry
    {
        std::vector<std::uint8_t> key; //!< canonical request bytes
        RunResult result;
    };

    BlobIndex blobs;
    mutable std::mutex mu; //!< guards memo and counters
    std::unordered_map<std::uint64_t, MemoEntry> memo;
    ResultCacheStats counters;
};

} // namespace rc::svc

#endif // RC_SERVICE_RESULT_CACHE_HH
