#include "sim/feed_cache.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits.h>
#include <type_traits>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/log.hh"
#include "common/tmpfile.hh"
#include "sim/fanout.hh"
#include "snapshot/serializer.hh"

namespace rc
{

static_assert(std::is_trivially_copyable_v<StepRecord>,
              "StepRecords are stored and mapped as raw bytes");

namespace
{

constexpr char kMagic[8] = {'R', 'C', 'F', 'E', 'E', 'D', '2', '\0'};
//! Bytes of the magic every format version shares; the version word
//! alone decides whether a blob is readable, so an RCFEED1 blob is
//! rejected as a stale format rather than as foreign bytes.
constexpr std::size_t kMagicFamily = 6;
constexpr std::uint32_t kFeedVersion = 2;
//! Fixed header: magic, version, record size, file size, arrays
//! off/len/hash, meta off/len, endian tag, CRC32 of the preceding 68.
constexpr std::uint64_t kHeaderBytes = 72;
//! Arrays start here (first 64-byte boundary past the header) and every
//! per-core array is re-aligned to 64 so mapped loads never straddle.
constexpr std::uint64_t kArraysAlign = 64;
constexpr std::uint32_t kEndianTag = 0x01020304;

// Fixed header field offsets (bytes).
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffRecordBytes = 12;
constexpr std::size_t kOffFileBytes = 16;
constexpr std::size_t kOffArraysOff = 24;
constexpr std::size_t kOffArraysBytes = 32;
constexpr std::size_t kOffArraysHash = 40;
constexpr std::size_t kOffMetaOff = 48;
constexpr std::size_t kOffMetaBytes = 56;
constexpr std::size_t kOffEndianTag = 64;
constexpr std::size_t kOffHeaderCrc = 68;

std::uint64_t
align64(std::uint64_t v)
{
    return (v + (kArraysAlign - 1)) & ~(kArraysAlign - 1);
}

void
st32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

void
st64(std::uint8_t *p, std::uint64_t v)
{
    st32(p, static_cast<std::uint32_t>(v));
    st32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t
ld32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t
ld64(const std::uint8_t *p)
{
    return static_cast<std::uint64_t>(ld32(p)) |
           static_cast<std::uint64_t>(ld32(p + 4)) << 32;
}

//! Start writeback of the spill whenever this much has been appended
//! since the last start, so store()'s fsync finds little left to do.
constexpr std::uint64_t kWritebackStride = 8ull << 20;

std::atomic<bool> forceNamedSpill{false};

inline std::uint64_t
hashStep(std::uint64_t acc, const std::uint8_t *p)
{
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    acc ^= w;
    acc *= 0xff51afd7ed558ccdull;
    return acc ^ (acc >> 33);
}

} // namespace

void
FeedHasher::words(const void *data, std::size_t len)
{
    RC_ASSERT((len & 7) == 0, "feed hash spans must be word-granular");
    const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
    const std::uint8_t *const end = p + len;
    std::uint64_t word = total / 8;
    total += len;
    for (; p != end && (word & 3) != 0; p += 8, ++word)
        lane[word & 3] = hashStep(lane[word & 3], p);
    std::uint64_t a = lane[0], b = lane[1], c = lane[2], d = lane[3];
    for (; end - p >= 32; p += 32) {
        a = hashStep(a, p);
        b = hashStep(b, p + 8);
        c = hashStep(c, p + 16);
        d = hashStep(d, p + 24);
    }
    lane[0] = a;
    lane[1] = b;
    lane[2] = c;
    lane[3] = d;
    // Fewer than four words left, and the next one belongs to lane 0.
    for (std::size_t k = 0; p != end; p += 8, ++k)
        lane[k] = hashStep(lane[k], p);
}

std::uint64_t
FeedHasher::done() const
{
    std::uint64_t x = total * 0x100000001b3ull;
    for (const std::uint64_t l : lane) {
        x ^= l;
        x *= 0xc4ceb9fe1a85ec53ull;
        x ^= x >> 29;
    }
    return x;
}

FeedKey
feedKeyOf(const SystemConfig &cfg, const Mix &mix, std::uint64_t seed,
          std::uint32_t scale, std::uint64_t warmup,
          std::uint64_t measure)
{
    Serializer s;
    s.beginSection("feedkey");
    s.beginSection("front");
    putConfigFields(s, cfg, /*frontEndOnly=*/true);
    s.endSection("front");
    s.beginSection("mix");
    s.putU64(mix.apps.size());
    for (const std::string &app : mix.apps)
        s.putString(app);
    s.endSection("mix");
    s.beginSection("opt");
    s.putU64(seed);
    s.putU32(scale);
    s.putU64(warmup);
    s.putU64(measure);
    s.endSection("opt");
    s.endSection("feedkey");
    FeedKey key;
    key.bytes = s.payload();
    key.digest = fnv1a64(key.bytes);
    return key;
}

std::uint64_t
feedHash64(const void *data, std::size_t len)
{
    FeedHasher h;
    const std::size_t whole = len & ~static_cast<std::size_t>(7);
    h.words(data, whole);
    if (len & 7) {
        // Zero-pad a trailing partial word (never produced by the blob
        // writer, but keeps the function total for arbitrary input).
        std::uint64_t w = 0;
        std::memcpy(&w, static_cast<const std::uint8_t *>(data) + whole,
                    len & 7);
        h.words(&w, 8);
    }
    return h.done();
}

// --------------------------------------------------------------------
// FeedBlob

FeedBlob::~FeedBlob()
{
    if (base)
        ::munmap(const_cast<std::uint8_t *>(base), mapLen);
}

std::shared_ptr<const FeedBlob>
FeedBlob::open(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throwSimError(SimError::Kind::Snapshot,
                      "cannot open feed blob '%s': %s", path.c_str(),
                      std::strerror(errno));
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        throwSimError(SimError::Kind::Snapshot,
                      "cannot stat feed blob '%s': %s", path.c_str(),
                      std::strerror(err));
    }
    const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
    if (size < kHeaderBytes) {
        ::close(fd);
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' is shorter than its header",
                      path.c_str());
    }
    void *m = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    const int maperr = errno;
    ::close(fd);
    if (m == MAP_FAILED)
        throwSimError(SimError::Kind::Snapshot,
                      "cannot map feed blob '%s': %s", path.c_str(),
                      std::strerror(maperr));

    // From here the shared_ptr owns the mapping: any validation throw
    // below unwinds through ~FeedBlob and unmaps.
    std::shared_ptr<FeedBlob> blob(new FeedBlob());
    blob->origin = path;
    blob->base = static_cast<const std::uint8_t *>(m);
    blob->mapLen = static_cast<std::size_t>(size);
    const std::uint8_t *h = blob->base;

    if (std::memcmp(h, kMagic, kMagicFamily) != 0)
        throwSimError(SimError::Kind::Snapshot,
                      "'%s' is not an RCFEED feed blob", path.c_str());
    if (ld32(h + kOffHeaderCrc) != crc32(h, kOffHeaderCrc))
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' fails its header CRC",
                      path.c_str());
    const std::uint32_t version = ld32(h + kOffVersion);
    if (version != kFeedVersion)
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' carries format version %u, "
                      "expected %u",
                      path.c_str(), version, kFeedVersion);
    if (ld32(h + kOffRecordBytes) != sizeof(StepRecord))
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' was written with %u-byte records, "
                      "this build uses %zu",
                      path.c_str(), ld32(h + kOffRecordBytes),
                      sizeof(StepRecord));
    if (ld32(h + kOffEndianTag) != kEndianTag)
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' has foreign endianness",
                      path.c_str());
    if (ld64(h + kOffFileBytes) != size)
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' is %llu bytes, header claims %llu",
                      path.c_str(),
                      static_cast<unsigned long long>(size),
                      static_cast<unsigned long long>(
                          ld64(h + kOffFileBytes)));
    const std::uint64_t arraysOff = ld64(h + kOffArraysOff);
    const std::uint64_t arraysBytes = ld64(h + kOffArraysBytes);
    const std::uint64_t metaOff = ld64(h + kOffMetaOff);
    const std::uint64_t metaBytes = ld64(h + kOffMetaBytes);
    if (arraysOff < kHeaderBytes || arraysOff + arraysBytes > size ||
        arraysOff + arraysBytes < arraysOff || metaOff < arraysOff ||
        metaOff + metaBytes > size || metaOff + metaBytes < metaOff)
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' declares out-of-bounds regions",
                      path.c_str());
    if (feedHash64(h + arraysOff, arraysBytes) != ld64(h + kOffArraysHash))
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' fails its arrays-region hash",
                      path.c_str());

    // The meta region is a complete snapshot container with its own
    // CRC; the Deserializer constructor validates it up front.
    Deserializer d(std::vector<std::uint8_t>(h + metaOff,
                                             h + metaOff + metaBytes));
    d.beginSection("feedmeta");
    blob->keyDigest = d.getU64();
    {
        const std::string key = d.getString();
        blob->key.assign(key.begin(), key.end());
    }
    if (d.getU64() != kFeedChunk)
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' was written with another chunk size",
                      path.c_str());
    const std::uint32_t cores = d.getU32();
    if (cores == 0 || cores > 1024)
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' claims %u cores", path.c_str(),
                      cores);
    blob->cores.resize(cores);
    const auto arrayAt = [&](std::uint64_t off, std::uint64_t bytes,
                             std::uint64_t align,
                             const char *what) -> const std::uint8_t * {
        if (off < arraysOff || off + bytes > arraysOff + arraysBytes ||
            off + bytes < off || (off & (align - 1)) != 0)
            throwSimError(SimError::Kind::Snapshot,
                          "feed blob '%s': %s out of bounds",
                          path.c_str(), what);
        return h + off;
    };
    const std::uint64_t maxChunks = arraysBytes / kChunkBlockBytes;
    for (std::uint32_t c = 0; c < cores; ++c) {
        CoreView &view = blob->cores[c];
        d.beginSection("core");
        view.label = d.getString();
        const std::uint64_t nchunks = d.getU64();
        view.llcCount = d.getU64();
        const std::uint64_t llcOff = d.getU64();
        if (nchunks > maxChunks)
            throwSimError(SimError::Kind::Snapshot,
                          "feed blob '%s': core %u claims %llu chunks",
                          path.c_str(), c,
                          static_cast<unsigned long long>(nchunks));
        view.count = nchunks * kFeedChunk;
        if (view.llcCount > view.count)
            throwSimError(SimError::Kind::Snapshot,
                          "feed blob '%s': core %u has more LLC-bound "
                          "records than records",
                          path.c_str(), c);
        view.llc = reinterpret_cast<const std::uint64_t *>(
            arrayAt(llcOff, view.llcCount * 8, 8, "llc index"));
        view.chunks.resize(nchunks);
        view.streamSnaps.resize(nchunks);
        view.hierSnaps.resize(nchunks);
        for (std::uint64_t k = 0; k < nchunks; ++k) {
            view.chunks[k] = arrayAt(d.getU64(), kChunkBlockBytes, 64,
                                     "chunk block");
            for (Snap *snap : {&view.streamSnaps[k], &view.hierSnaps[k]}) {
                const std::uint64_t off = d.getU64();
                const std::uint64_t len = d.getU64();
                snap->idx = k * kFeedChunk;
                snap->data = arrayAt(off, len, 64, "snapshot");
                snap->len = static_cast<std::size_t>(len);
            }
        }
        d.endSection("core");
    }
    d.endSection("feedmeta");
    return blob;
}

// --------------------------------------------------------------------
// FeedSpill

void
FeedSpill::forceNamedForTest(bool on)
{
    forceNamedSpill.store(on, std::memory_order_relaxed);
}

FeedSpill::FeedSpill(const std::string &dir, std::uint32_t cores)
    : pos(align64(kHeaderBytes)), synced(pos), chunks(cores), llc(cores)
{
    std::string where = dir;
    if (where.empty()) {
        const char *tmpdir = std::getenv("TMPDIR");
        where = tmpdir && *tmpdir ? tmpdir : "/tmp";
    }
#ifdef O_TMPFILE
    if (!forceNamedSpill.load(std::memory_order_relaxed))
        fd = ::open(where.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC, 0644);
#endif
    if (fd < 0) {
        // No O_TMPFILE on this filesystem: a named pid-unique tmp that
        // the destructor unlinks and recovery sweeps once we are gone.
        named = uniqueTmpPath(where + "/capture");
        fd = ::open(named.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC,
                    0644);
        if (fd < 0) {
            const int err = errno;
            named.clear();
            throwSimError(SimError::Kind::Io,
                          "cannot create a feed spill in '%s': %s",
                          where.c_str(), std::strerror(err));
        }
    }
}

FeedSpill::~FeedSpill()
{
    if (fd >= 0)
        ::close(fd);
    if (!named.empty())
        ::unlink(named.c_str());
}

void
FeedSpill::writeAt(const void *data, std::size_t len, std::uint64_t off)
{
    const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
    while (len != 0 && !failed) {
        const ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(off));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            warn("feed cache: capture spill write failed (%s); this "
                 "feed will not be stored",
                 n < 0 ? std::strerror(errno) : "no progress");
            failed = true;
            return;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
        off += static_cast<std::uint64_t>(n);
    }
}

std::uint64_t
FeedSpill::emitPadded(const void *data, std::size_t len)
{
    const std::uint64_t at = pos;
    if (len == 0)
        return at;
    const std::uint64_t padded = align64(len);
    static const std::uint8_t zeros[kArraysAlign] = {};
    writeAt(data, len, pos);
    writeAt(zeros, padded - len, pos + len);
    // Hash exactly the bytes that land: whole words, then the partial
    // tail word and the padding as zeros.
    const std::size_t whole = len & ~static_cast<std::size_t>(7);
    hash.words(data, whole);
    std::uint8_t tail[kArraysAlign] = {};
    std::memcpy(tail, static_cast<const std::uint8_t *>(data) + whole,
                len - whole);
    hash.words(tail, padded - whole);
    pos += padded;
    return at;
}

void
FeedSpill::appendChunk(std::uint32_t core, const StepRecord *recs,
                       const std::uint64_t *cumA, const std::uint64_t *cumI,
                       const std::vector<std::uint8_t> &streamSnap,
                       const std::vector<std::uint8_t> &hierSnap)
{
    if (failed)
        return;
    ChunkEntry e;
    e.block = emitPadded(recs, kChunkCumAOff);
    emitPadded(cumA, kChunkCumIOff - kChunkCumAOff);
    emitPadded(cumI, kChunkBlockBytes - kChunkCumIOff);
    e.streamOff = emitPadded(streamSnap.data(), streamSnap.size());
    e.streamLen = streamSnap.size();
    e.hierOff = emitPadded(hierSnap.data(), hierSnap.size());
    e.hierLen = hierSnap.size();
    chunks[core].push_back(e);
    startWriteback();
}

void
FeedSpill::startWriteback()
{
    // Kick off asynchronous writeback of what has accumulated, so the
    // fsync in land() waits for the tail only, not the whole blob.
#ifdef SYNC_FILE_RANGE_WRITE
    if (pos - synced >= kWritebackStride) {
        (void)::sync_file_range(fd, static_cast<off_t>(synced),
                                static_cast<off_t>(pos - synced),
                                SYNC_FILE_RANGE_WRITE);
        synced = pos;
    }
#endif
}

bool
FeedSpill::linkInto(const std::string &tmp)
{
    // Same filesystem: give the spill a second name.  An unnamed spill
    // is linked through its /proc/self/fd entry.
    const std::string self = "/proc/self/fd/" + std::to_string(fd);
    const int linked =
        named.empty() ? ::linkat(AT_FDCWD, self.c_str(), AT_FDCWD,
                                 tmp.c_str(), AT_SYMLINK_FOLLOW)
                      : ::link(named.c_str(), tmp.c_str());
    if (linked == 0)
        return true;
    // Another filesystem (a spill opened without the cache directory):
    // copy the sealed bytes into the staging file.
    const int out =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (out < 0)
        return false;
    std::vector<std::uint8_t> buf(1u << 20);
    bool ok = true;
    for (off_t off = 0; ok;) {
        const ssize_t n = ::pread(fd, buf.data(), buf.size(), off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            ok = n == 0;
            break;
        }
        for (ssize_t done = 0; ok && done < n;) {
            const ssize_t w = ::write(out, buf.data() + done,
                                      static_cast<std::size_t>(n - done));
            if (w < 0 && errno == EINTR)
                continue;
            ok = w > 0;
            done += w;
        }
        off += n;
    }
    ok = ok && ::fsync(out) == 0;
    ::close(out);
    return ok;
}

bool
FeedSpill::land(const std::string &path, const FeedKey &key,
                const std::vector<std::string> &labels)
{
    RC_ASSERT(labels.size() == chunks.size(),
              "feed spill has %zu cores, %zu labels given", chunks.size(),
              labels.size());
    const std::uint64_t arraysOff = align64(kHeaderBytes);
    std::vector<std::uint64_t> llcOff(chunks.size());
    for (std::size_t c = 0; c < chunks.size(); ++c)
        llcOff[c] = emitPadded(llc[c].data(), llc[c].size() * 8);
    const std::uint64_t arraysBytes = pos - arraysOff;

    // Meta region: a complete snapshot container of its own.
    Serializer meta;
    meta.beginSection("feedmeta");
    meta.putU64(key.digest);
    meta.putString(std::string(key.bytes.begin(), key.bytes.end()));
    meta.putU64(kFeedChunk);
    meta.putU32(static_cast<std::uint32_t>(chunks.size()));
    for (std::size_t c = 0; c < chunks.size(); ++c) {
        meta.beginSection("core");
        meta.putString(labels[c]);
        meta.putU64(chunks[c].size());
        meta.putU64(llc[c].size());
        meta.putU64(llcOff[c]);
        for (const ChunkEntry &e : chunks[c]) {
            meta.putU64(e.block);
            meta.putU64(e.streamOff);
            meta.putU64(e.streamLen);
            meta.putU64(e.hierOff);
            meta.putU64(e.hierLen);
        }
        meta.endSection("core");
    }
    meta.endSection("feedmeta");
    const std::vector<std::uint8_t> metaImg = meta.image();
    const std::uint64_t metaOff = pos;
    writeAt(metaImg.data(), metaImg.size(), metaOff);

    std::uint8_t hdr[kHeaderBytes];
    std::memcpy(hdr, kMagic, sizeof(kMagic));
    st32(hdr + kOffVersion, kFeedVersion);
    st32(hdr + kOffRecordBytes, sizeof(StepRecord));
    st64(hdr + kOffFileBytes, metaOff + metaImg.size());
    st64(hdr + kOffArraysOff, arraysOff);
    st64(hdr + kOffArraysBytes, arraysBytes);
    st64(hdr + kOffArraysHash, hash.done());
    st64(hdr + kOffMetaOff, metaOff);
    st64(hdr + kOffMetaBytes, metaImg.size());
    st32(hdr + kOffEndianTag, kEndianTag);
    st32(hdr + kOffHeaderCrc, crc32(hdr, kOffHeaderCrc));
    writeAt(hdr, kHeaderBytes, 0);
    // Whatever happens below, this spill has been sealed once.
    const bool sealed = !failed;
    failed = true;
    if (!sealed)
        return false;
    if (::fsync(fd) != 0) {
        warn("feed cache: cannot flush feed blob for '%s': %s",
             path.c_str(), std::strerror(errno));
        return false;
    }
    const std::string tmp = uniqueTmpPath(path);
    if (!linkInto(tmp) || std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("feed cache: cannot land blob '%s': %s", path.c_str(),
             std::strerror(errno));
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

// --------------------------------------------------------------------
// FeedCache

FeedCache::FeedCache(const std::string &dir)
    : blobs(dir, "feed", "feed.index", "# rc feed cache index v1\n",
            "feed cache")
{
}

std::shared_ptr<FeedCache>
FeedCache::open(const std::string &dir)
{
    // One instance per canonical directory for the whole process, so
    // the harness, benches and daemon stats all observe one counter
    // set (and share blob mappings) no matter who opened it first.
    static std::mutex regMu;
    static std::unordered_map<std::string, std::shared_ptr<FeedCache>>
        registry;
    std::lock_guard<std::mutex> lock(regMu);
    char buf[PATH_MAX];
    if (::realpath(dir.c_str(), buf)) {
        const auto it = registry.find(buf);
        if (it != registry.end())
            return it->second;
    }
    auto cache = std::make_shared<FeedCache>(dir); // creates the dir
    std::string canon = dir;
    if (::realpath(dir.c_str(), buf))
        canon = buf;
    const auto it = registry.find(canon);
    if (it != registry.end())
        return it->second;
    registry.emplace(canon, cache);
    return cache;
}

std::shared_ptr<const FeedBlob>
FeedCache::lookup(const FeedKey &key)
{
    if (!blobs.contains(key.digest)) {
        std::lock_guard<std::mutex> lock(mu);
        ++counters.misses;
        return nullptr;
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        const auto it = resident.find(key.digest);
        if (it != resident.end()) {
            if (std::shared_ptr<const FeedBlob> blob = it->second.lock()) {
                if (blob->keyBytes() == key.bytes) {
                    ++counters.hits;
                    return blob;
                }
                // Digest collision against a valid resident blob.
                ++counters.misses;
                return nullptr;
            }
            resident.erase(it);
        }
    }
    const std::string path = blobPath(key.digest);
    std::shared_ptr<const FeedBlob> blob;
    try {
        blob = FeedBlob::open(path);
        if (blob->digest() != key.digest)
            throwSimError(SimError::Kind::Snapshot,
                          "feed blob '%s' carries a foreign digest",
                          path.c_str());
    } catch (const SimError &) {
        // Torn, truncated, bit-flipped or stale-format blob: drop it
        // and let the caller recompute.  Never a wrong stream.
        blobs.drop(key.digest);
        std::lock_guard<std::mutex> lock(mu);
        resident.erase(key.digest);
        ++counters.corruptDropped;
        ++counters.misses;
        return nullptr;
    }
    if (blob->keyBytes() != key.bytes) {
        // A digest collision, not corruption: the blob is some other
        // key's valid entry.  Miss without unlinking it.
        std::lock_guard<std::mutex> lock(mu);
        ++counters.misses;
        return nullptr;
    }
    std::lock_guard<std::mutex> lock(mu);
    resident[key.digest] = blob;
    ++counters.hits;
    return blob;
}

FeedKeyLease::~FeedKeyLease()
{
    if (fd >= 0) {
        ::flock(fd, LOCK_UN);
        ::close(fd);
    }
}

std::unique_ptr<FeedKeyLease>
FeedCache::lockKey(std::uint64_t digest)
{
    const std::string path = blobPath(digest) + ".lock";
    const int fd = ::open(path.c_str(), O_CREAT | O_RDWR, 0666);
    if (fd < 0) {
        warn("feed cache: cannot open key lock '%s': %s", path.c_str(),
             std::strerror(errno));
        return nullptr;
    }
    int rc;
    do {
        rc = ::flock(fd, LOCK_EX);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        ::close(fd);
        warn("feed cache: cannot lock key '%s': %s", path.c_str(),
             std::strerror(errno));
        return nullptr;
    }
    auto lease = std::unique_ptr<FeedKeyLease>(new FeedKeyLease());
    lease->fd = fd;
    return lease;
}

void
FeedCache::store(const FeedKey &key, FanoutFeed &feed)
{
    RC_ASSERT(feed.capturing(),
              "feed-cache store needs a capture-mode feed");
    const std::unique_ptr<FeedSpill> spill = std::move(feed.spill);
    if (!spill) {
        warn("feed cache: nothing captured to persist for %s",
             digestHex(key.digest).c_str());
        return;
    }
    if (!spill->land(blobPath(key.digest), key, feed.labels))
        return;
    blobs.add(key.digest);
    std::lock_guard<std::mutex> lock(mu);
    ++counters.stores;
}

FeedCacheStats
FeedCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    FeedCacheStats out = counters;
    out.recovered = blobs.recovered();
    return out;
}

// --------------------------------------------------------------------
// Layout-aware blob corruption (fault injection)

void
feedTruncateBlob(const std::string &path)
{
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0)
        throwSimError(SimError::Kind::Io,
                      "cannot stat feed blob '%s': %s", path.c_str(),
                      std::strerror(errno));
    // Cut mid-arrays: past the header (so the failure exercises the
    // region bounds check, not the trivial short-file path) but well
    // short of the meta region.
    const off_t keep =
        std::max<off_t>(static_cast<off_t>(kHeaderBytes) + 8,
                        st.st_size / 2);
    if (::truncate(path.c_str(), keep) != 0)
        throwSimError(SimError::Kind::Io,
                      "cannot truncate feed blob '%s': %s", path.c_str(),
                      std::strerror(errno));
}

void
feedFlipBlobByte(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    if (!f)
        throwSimError(SimError::Kind::Io,
                      "cannot open feed blob '%s': %s", path.c_str(),
                      std::strerror(errno));
    std::uint8_t hdr[kHeaderBytes];
    if (std::fread(hdr, 1, kHeaderBytes, f) != kHeaderBytes) {
        std::fclose(f);
        throwSimError(SimError::Kind::Io,
                      "cannot read feed blob header '%s'", path.c_str());
    }
    const std::uint64_t arraysOff = ld64(hdr + kOffArraysOff);
    const std::uint64_t arraysBytes = ld64(hdr + kOffArraysBytes);
    const long target =
        static_cast<long>(arraysOff + arraysBytes / 2);
    std::uint8_t b = 0;
    const bool ok = std::fseek(f, target, SEEK_SET) == 0 &&
                    std::fread(&b, 1, 1, f) == 1 &&
                    std::fseek(f, target, SEEK_SET) == 0 &&
                    (b ^= 0x40, std::fwrite(&b, 1, 1, f) == 1) &&
                    std::fflush(f) == 0;
    std::fclose(f);
    if (!ok)
        throwSimError(SimError::Kind::Io,
                      "cannot flip a payload byte in '%s'", path.c_str());
}

void
feedStaleVersionBlob(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    if (!f)
        throwSimError(SimError::Kind::Io,
                      "cannot open feed blob '%s': %s", path.c_str(),
                      std::strerror(errno));
    std::uint8_t hdr[kHeaderBytes];
    if (std::fread(hdr, 1, kHeaderBytes, f) != kHeaderBytes) {
        std::fclose(f);
        throwSimError(SimError::Kind::Io,
                      "cannot read feed blob header '%s'", path.c_str());
    }
    // Bump the version word and RE-SEAL the header CRC, so the reader's
    // rejection can only come from the version check itself — the
    // stale-format path, not the corruption path.
    st32(hdr + kOffVersion, kFeedVersion + 1);
    st32(hdr + kOffHeaderCrc, crc32(hdr, kOffHeaderCrc));
    const bool ok = std::fseek(f, 0, SEEK_SET) == 0 &&
                    std::fwrite(hdr, 1, kHeaderBytes, f) ==
                        kHeaderBytes &&
                    std::fflush(f) == 0;
    std::fclose(f);
    if (!ok)
        throwSimError(SimError::Kind::Io,
                      "cannot rewrite feed blob header '%s'",
                      path.c_str());
}

} // namespace rc
