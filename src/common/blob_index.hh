/**
 * @file
 * The directory index of a content-addressed blob store, shared by the
 * service's result cache and the feed cache, plus the FNV-1a digest and
 * 16-hex spelling their keys and blob names use.
 *
 * A store directory holds one blob per key digest,
 * `<prefix>-<16 hex>.bin`, and an append-only index file of
 * `entry digest=<16 hex>` lines under a one-line header.  Appends are
 * flock-guarded and fsync'd, so processes sharing a directory never
 * interleave torn lines.  Blobs are the source of truth: startup
 * recovery adopts a blob whose rename landed but whose index append did
 * not, tolerates a torn index tail, sweeps the staging tmps of dead
 * writers (common/tmpfile.hh; a live sibling's in-flight write is left
 * alone) and rewrites the index compacted.  Lock files
 * (`<blob>.lock`) are never touched: a live process may hold one, and
 * replacing a held lock file's inode would split the exclusion.
 *
 * What a blob holds, how it is written and how a read verifies it stay
 * with each store; this class only knows which digests are present.
 */

#ifndef RC_COMMON_BLOB_INDEX_HH
#define RC_COMMON_BLOB_INDEX_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

namespace rc
{

/** FNV-1a 64 of @p bytes: the content digest of a store key. */
std::uint64_t fnv1a64(const std::vector<std::uint8_t> &bytes);

/** 16-hex-digit spelling of a digest (blob names, index lines, logs). */
std::string digestHex(std::uint64_t digest);

/** The set of blobs present in one store directory; thread-safe. */
class BlobIndex
{
  public:
    /**
     * Open @p dir (creating it if needed) and run startup recovery.
     * @param prefix blob names are `<prefix>-<16 hex>.bin`.
     * @param indexName the index file inside @p dir.
     * @param header the index file's first line, newline included.
     * @param what the store's name in messages, e.g. "feed cache".
     * Throws SimError(Kind::Io) when the directory cannot be created
     * or scanned.
     */
    BlobIndex(const std::string &dir, const char *prefix,
              const char *indexName, const char *header, const char *what);

    /** Where the blob for @p digest lives (whether or not it exists). */
    std::string blobPath(std::uint64_t digest) const;

    /** Is a blob for @p digest believed present? */
    bool contains(std::uint64_t digest) const;

    /** Record a blob that has landed under blobPath(@p digest). */
    void add(std::uint64_t digest);

    /** Unlink a blob that failed verification and forget it. */
    void drop(std::uint64_t digest);

    /** Rewrite the compacted index (pid-unique tmp + fsync + rename). */
    void persistIndex() const;

    /** Number of blobs currently believed present. */
    std::size_t size() const;

    /** Blobs the startup scan found that the index did not list. */
    std::uint64_t recovered() const { return adopted; }

    const std::string &directory() const { return dir; }

  private:
    void recover();
    void appendIndex(std::uint64_t digest) const;

    const std::string dir;
    const std::string prefix;    //!< "<prefix>-" of every blob name
    const std::string indexPath;
    const std::string header;
    const std::string what;
    mutable std::mutex mu;
    std::unordered_set<std::uint64_t> known; //!< digests with blobs
    std::uint64_t adopted = 0; //!< set once, by the constructor
};

} // namespace rc

#endif // RC_COMMON_BLOB_INDEX_HH
