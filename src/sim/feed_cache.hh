/**
 * @file
 * Persistent content-addressed feed cache: the fan-out front end's
 * classified per-core StepRecord streams, serialized once and replayed
 * forever.
 *
 * PAPER.md's configurations differ only at the SLLC, so the private
 * hierarchy's classification of a (mix, seed, scale, window,
 * private-prefix) tuple is identical across every sweep, tournament
 * rerun and daemon request that shares those inputs.  The fan-out front
 * end (FanoutFeed) already computes that classification exactly once
 * per sweep; this module makes it durable, so even a never-before-seen
 * SLLC config skips the front end entirely.
 *
 * Blob format `RCFEED2` (one file per key, `feed-<digest16>.bin`):
 *
 *   [0..71]    72-byte fixed header: magic "RCFEED2\0", format version,
 *              sizeof(StepRecord), total file bytes, arrays region
 *              offset/length/hash, meta region offset/length, an
 *              endianness tag, and a CRC32 over the preceding header
 *              bytes.
 *   arrays     one entry per front-end chunk (kFeedChunk records of one
 *              core) in the order the chunks were generated: a
 *              fixed-size 64-byte aligned block holding the chunk's
 *              StepRecords, then its inclusive cumA prefix sums, then
 *              its cumI sums; then the chunk-boundary stream and
 *              virgin-hierarchy snapshot images (each padded to 64).
 *              After the last chunk, each core's LLC-bound record
 *              index.  Guarded by a 64-bit word-stride hash
 *              (feedHash64) rather than byte-wise CRC32 so a warm open
 *              validates at memory bandwidth.
 *   meta       a complete snapshot-container image (RCSNAP01, its own
 *              CRC32): the full canonical key bytes, the chunk size, and
 *              per core its label, chunk count, LLC index length and
 *              offset, and chunk table (block and snapshot offsets of
 *              every chunk).
 *
 * Capture streams: a capturing FanoutFeed appends each chunk to an
 * unnamed spill file (FeedSpill) as soon as it is generated, hashing as
 * it goes, and trims its live window exactly like a plain feed.
 * store() then only appends the LLC index, meta and header, fsyncs and
 * links the file into place, so capture costs about what plain fan-out
 * costs and holds no more memory.
 *
 * The arrays region is consumed zero-copy: a warm FanoutFeed reads
 * StepRecords and prefix sums through the chunk table straight out of
 * the mmap.  Lookups verify the header CRC, the format version, the
 * arrays hash, the meta container CRC, AND compare the stored key
 * bytes against the probe — a corrupt or stale-format blob or a digest
 * collision demotes to a miss (corruption additionally unlinks the
 * blob), never a wrong answer.  Blobs land by tmp + fsync + rename;
 * the flock-guarded append-only `feed.index` and the startup recovery
 * that adopts unindexed blobs and sweeps the tmps of dead writers are
 * common/blob_index.hh's, shared with the service's result cache.
 */

#ifndef RC_SIM_FEED_CACHE_HH
#define RC_SIM_FEED_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/private_cache.hh"
#include "common/blob_index.hh"
#include "sim/system_config.hh"
#include "workloads/mixes.hh"

namespace rc
{

class FanoutFeed;

/** Canonical feed-cache key: bytes + their FNV-1a 64 digest. */
struct FeedKey
{
    std::vector<std::uint8_t> bytes;
    std::uint64_t digest = 0;
};

/**
 * Build the key for one front-end pass: the config's FrontEnd fields
 * (forEachField(); SLLC-only changes leave the key alone) + mix
 * applications + the deterministic run window (seed, scale, warmup,
 * measure).  Two runs share a key iff their fan-out front ends
 * generate bit-identical record streams.
 */
FeedKey feedKeyOf(const SystemConfig &cfg, const Mix &mix,
                  std::uint64_t seed, std::uint32_t scale,
                  std::uint64_t warmup, std::uint64_t measure);

/** Word-stride 64-bit hash of the arrays region; memory-bandwidth
 *  integrity check where byte-wise CRC32 would dominate a warm open. */
std::uint64_t feedHash64(const void *data, std::size_t len);

/**
 * Streaming form of feedHash64; every update must be word-granular (the
 * blob layout only ever produces multiple-of-8 spans).  Word i of the
 * stream feeds lane i % 4, so the four multiply chains run in parallel
 * and hashing keeps up with memory bandwidth on capture and on a warm
 * open alike.
 */
struct FeedHasher
{
    std::uint64_t lane[4] = {0x9e3779b97f4a7c15ull, 0xbf58476d1ce4e5b9ull,
                             0x94d049bb133111ebull, 0x2545f4914f6cdd1dull};
    std::uint64_t total = 0; //!< bytes hashed so far

    void words(const void *data, std::size_t len);
    std::uint64_t done() const;
};

/** Records per front-end chunk: the generation unit, the snapshot
 *  cadence and the RCFEED2 block size (a power of two, so a flat record
 *  index splits into chunk and slot with a shift and a mask). */
inline constexpr std::uint64_t kFeedChunk = 4096;
inline constexpr unsigned kFeedChunkShift = 12;
static_assert(kFeedChunk == 1ull << kFeedChunkShift);

//! Byte offsets inside an RCFEED2 chunk block: records, cumA, cumI.
inline constexpr std::uint64_t kChunkCumAOff =
    kFeedChunk * sizeof(StepRecord);
inline constexpr std::uint64_t kChunkCumIOff = kChunkCumAOff + kFeedChunk * 8;
inline constexpr std::uint64_t kChunkBlockBytes =
    kChunkCumIOff + kFeedChunk * 8;

/**
 * One mapped blob.  Owns the mmap; CoreView pointers alias it, so a
 * FanoutFeed replaying from the blob keeps the shared_ptr alive.
 * Open() validates header CRC, arrays hash and the meta container
 * before any pointer is handed out; every defect throws
 * SimError(Kind::Snapshot).
 */
class FeedBlob
{
  public:
    /** A chunk-boundary stream or virgin-hierarchy snapshot image
     *  (Serializer::image() bytes), viewed inside the mapping. */
    struct Snap
    {
        std::uint64_t idx = 0; //!< first record it precedes
        const std::uint8_t *data = nullptr;
        std::size_t len = 0;
    };

    /** Zero-copy view of one core's chunks inside the mapping. */
    struct CoreView
    {
        std::string label;
        //! Block of chunk k (records k*kFeedChunk onwards); see
        //! kChunkCumAOff/kChunkCumIOff for the prefix sums inside it.
        std::vector<const std::uint8_t *> chunks;
        const std::uint64_t *llc = nullptr;
        std::uint64_t count = 0;    //!< records (chunk-aligned)
        std::uint64_t llcCount = 0; //!< LLC-bound records
        std::vector<Snap> streamSnaps; //!< one per chunk
        std::vector<Snap> hierSnaps;   //!< one per chunk
    };

    /** Map and validate @p path; throws SimError(Kind::Snapshot). */
    static std::shared_ptr<const FeedBlob> open(const std::string &path);

    ~FeedBlob();

    FeedBlob(const FeedBlob &) = delete;
    FeedBlob &operator=(const FeedBlob &) = delete;

    const std::vector<std::uint8_t> &keyBytes() const { return key; }
    std::uint64_t digest() const { return keyDigest; }
    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores.size());
    }
    const CoreView &core(std::uint32_t c) const { return cores[c]; }
    const std::string &path() const { return origin; }

  private:
    FeedBlob() = default;

    std::string origin;
    const std::uint8_t *base = nullptr; //!< mmap base
    std::size_t mapLen = 0;
    std::vector<std::uint8_t> key;
    std::uint64_t keyDigest = 0;
    std::vector<CoreView> cores;
};

/**
 * Streaming writer of one RCFEED2 blob: the file a capturing
 * FanoutFeed appends each generated chunk to while it runs.
 *
 * The spill is an unnamed O_TMPFILE in its directory where the
 * filesystem supports that, so a dropped or killed capture leaves
 * nothing behind; otherwise a pid-unique `capture.<pid>.<seq>.tmp` that
 * the destructor unlinks and FeedCache recovery sweeps once its writer
 * is dead.  Appends hash as they go and start writeback early, so
 * land() has only the LLC index, meta, header and fsync left to do.
 * I/O failures never throw out of the simulation: the spill turns
 * inert, and land() reports that nothing can be stored.
 */
class FeedSpill
{
  public:
    /**
     * Open a spill for @p cores cores in @p dir (the feed cache's
     * directory, so landing is a link; empty = $TMPDIR or /tmp).
     * Throws SimError(Kind::Io) when no file can be created.
     */
    FeedSpill(const std::string &dir, std::uint32_t cores);

    ~FeedSpill();

    FeedSpill(const FeedSpill &) = delete;
    FeedSpill &operator=(const FeedSpill &) = delete;

    /** Append the next chunk of @p core: kFeedChunk records and their
     *  prefix sums, plus the snapshots taken before it was generated. */
    void appendChunk(std::uint32_t core, const StepRecord *recs,
                     const std::uint64_t *cumA, const std::uint64_t *cumI,
                     const std::vector<std::uint8_t> &streamSnap,
                     const std::vector<std::uint8_t> &hierSnap);

    /** Note that record @p idx of @p core is LLC-bound (ascending). */
    void appendLlc(std::uint32_t core, std::uint64_t idx)
    {
        llc[core].push_back(idx);
    }

    /**
     * Seal the blob (LLC index, meta, header), fsync it and atomically
     * rename it to @p path.  @return false (after a warning) when any
     * step failed; nothing is left under @p path then.
     */
    bool land(const std::string &path, const FeedKey &key,
              const std::vector<std::string> &labels);

    /** Spill into a named pid-unique tmp even where O_TMPFILE works
     *  (tests exercise the named path's crash safety with it). */
    static void forceNamedForTest(bool on);

  private:
    /** Where one chunk's pieces landed in the arrays region. */
    struct ChunkEntry
    {
        std::uint64_t block = 0;
        std::uint64_t streamOff = 0, streamLen = 0;
        std::uint64_t hierOff = 0, hierLen = 0;
    };

    /** Append @p len bytes, zero-padded to 64, hashing exactly what
     *  lands in the file.  @return the offset they start at. */
    std::uint64_t emitPadded(const void *data, std::size_t len);
    void writeAt(const void *data, std::size_t len, std::uint64_t off);
    void startWriteback();
    bool linkInto(const std::string &tmp);

    int fd = -1;
    std::string named; //!< path of a named spill; empty when unnamed
    std::uint64_t pos = 0;    //!< next append offset
    std::uint64_t synced = 0; //!< writeback started below this offset
    bool failed = false;
    FeedHasher hash;
    std::vector<std::vector<ChunkEntry>> chunks; //!< [core]
    std::vector<std::vector<std::uint64_t>> llc; //!< [core]
};

/** Monotonic counters exported into daemon stats JSON / bench output. */
struct FeedCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t corruptDropped = 0; //!< blobs failing validation
    std::uint64_t recovered = 0;      //!< blobs adopted at startup
};

/**
 * RAII holder of one key's exclusive flock lease (see
 * FeedCache::lockKey()); unlocks and closes on destruction.
 */
class FeedKeyLease
{
  public:
    ~FeedKeyLease();
    FeedKeyLease(const FeedKeyLease &) = delete;
    FeedKeyLease &operator=(const FeedKeyLease &) = delete;

  private:
    friend class FeedCache;
    FeedKeyLease() = default;
    int fd = -1;
};

/**
 * The persistent feed store; thread-safe.  Opened blobs are kept as
 * weak references so concurrent sweep jobs hitting the same key share
 * one mapping, while idle blobs cost nothing once the last replaying
 * feed releases them.
 */
class FeedCache
{
  public:
    /** Open (creating if needed) @p dir and run startup recovery.
     *  Throws SimError(Kind::Io) when the directory is unusable. */
    explicit FeedCache(const std::string &dir);

    /**
     * Process-wide shared instance for @p dir (canonicalized), so the
     * harness, daemon stats and benches observe one set of counters.
     */
    static std::shared_ptr<FeedCache> open(const std::string &dir);

    /**
     * Look @p key up.
     * @return the mapped blob, or nullptr on miss.  A blob failing any
     *         validation check is unlinked and counted corruptDropped;
     *         a digest collision (key bytes differ) is a plain miss.
     */
    std::shared_ptr<const FeedBlob> lookup(const FeedKey &key);

    /**
     * Persist @p feed's captured record streams under @p key: seal its
     * spill and land it (atomic tmp+fsync+rename blob, flock-guarded
     * index append).  The feed must have been constructed in capture
     * mode; storing consumes its spill, so a second store() of the same
     * feed stores nothing.
     */
    void store(const FeedKey &key, FanoutFeed &feed);

    /** Number of blobs currently believed present. */
    std::size_t size() const { return blobs.size(); }

    /** Counter snapshot (taken under the cache lock). */
    FeedCacheStats stats() const;

    /** Blob path for @p digest (tests and fault injection). */
    std::string blobPath(std::uint64_t digest) const
    {
        return blobs.blobPath(digest);
    }

    /**
     * Acquire the exclusive flock lease for @p digest's key (blocking).
     * Cold-key writers take this before simulating so two processes
     * racing the same key serialize: the first computes and stores, the
     * second wakes, re-looks-up, and replays the warm blob.  Purely an
     * efficiency protocol — correctness never depends on it, and a
     * nullptr return (lock file unusable) just means both compute.
     */
    std::unique_ptr<FeedKeyLease> lockKey(std::uint64_t digest);

    const std::string &directory() const { return blobs.directory(); }

  private:
    BlobIndex blobs;
    mutable std::mutex mu; //!< guards resident and counters
    //! Live mappings by digest; weak so an unused blob unmaps itself.
    std::unordered_map<std::uint64_t, std::weak_ptr<const FeedBlob>>
        resident;
    FeedCacheStats counters;
};

/**
 * Fault-injection helpers (FaultInjector delegates here because the
 * damage must be layout-aware): each corrupts an on-disk blob exactly
 * the way one feed FaultClass describes.
 */
//! Truncate the blob mid-arrays (torn write / short copy).
void feedTruncateBlob(const std::string &path);
//! Flip one byte inside the arrays region (silent media corruption).
void feedFlipBlobByte(const std::string &path);
//! Bump the format version word and re-seal the header CRC, so ONLY
//! the version check can reject the blob (stale-format detection).
void feedStaleVersionBlob(const std::string &path);

} // namespace rc

#endif // RC_SIM_FEED_CACHE_HH
