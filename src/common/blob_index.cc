#include "common/blob_index.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/filelock.hh"
#include "common/log.hh"
#include "common/tmpfile.hh"

namespace rc
{

std::uint64_t
fnv1a64(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a 64 offset basis
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
digestHex(std::uint64_t digest)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

BlobIndex::BlobIndex(const std::string &dir, const char *prefix,
                     const char *indexName, const char *header,
                     const char *what)
    : dir(dir), prefix(std::string(prefix) + "-"),
      indexPath(dir + "/" + indexName), header(header), what(what)
{
    if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST)
        throwSimError(SimError::Kind::Io,
                      "cannot create %s directory '%s': %s", what,
                      dir.c_str(), std::strerror(errno));
    recover();
}

std::string
BlobIndex::blobPath(std::uint64_t digest) const
{
    return dir + "/" + prefix + digestHex(digest) + ".bin";
}

void
BlobIndex::recover()
{
    std::unordered_set<std::uint64_t> indexed;
    if (std::FILE *f = std::fopen(indexPath.c_str(), "rb")) {
        char line[128];
        while (std::fgets(line, sizeof(line), f)) {
            unsigned long long digest = 0;
            if (std::sscanf(line, "entry digest=%llx", &digest) == 1)
                indexed.insert(digest);
        }
        std::fclose(f);
    }

    DIR *d = ::opendir(dir.c_str());
    if (!d)
        throwSimError(SimError::Kind::Io,
                      "cannot scan %s directory '%s': %s", what.c_str(),
                      dir.c_str(), std::strerror(errno));
    const std::size_t nameLen = prefix.size() + 16 + 4;
    while (struct dirent *ent = ::readdir(d)) {
        // "<prefix>-<16 hex>.bin"; .lock and .tmp siblings never match.
        const std::string name = ent->d_name;
        if (name.size() != nameLen || name.rfind(prefix, 0) != 0 ||
            name.compare(nameLen - 4, 4, ".bin") != 0)
            continue;
        const std::string hex = name.substr(prefix.size(), 16);
        char *end = nullptr;
        const std::uint64_t digest = std::strtoull(hex.c_str(), &end, 16);
        if (end == nullptr || *end != '\0')
            continue;
        known.insert(digest);
        if (!indexed.count(digest))
            ++adopted;
    }
    ::closedir(d);
    sweepDeadTmps(dir);
    persistIndex();
}

bool
BlobIndex::contains(std::uint64_t digest) const
{
    std::lock_guard<std::mutex> lock(mu);
    return known.count(digest) != 0;
}

void
BlobIndex::add(std::uint64_t digest)
{
    appendIndex(digest);
    std::lock_guard<std::mutex> lock(mu);
    known.insert(digest);
}

void
BlobIndex::drop(std::uint64_t digest)
{
    ::unlink(blobPath(digest).c_str());
    std::lock_guard<std::mutex> lock(mu);
    known.erase(digest);
}

void
BlobIndex::appendIndex(std::uint64_t digest) const
{
    const bool fresh = ::access(indexPath.c_str(), F_OK) != 0;
    std::FILE *f = std::fopen(indexPath.c_str(), "ab");
    if (!f) {
        warn("%s: cannot open index '%s': %s", what.c_str(),
             indexPath.c_str(), std::strerror(errno));
        return;
    }
    try {
        // flock orders this append against other processes sharing the
        // directory; recovery tolerates a torn tail anyway, but
        // well-formed records make post-mortems readable.
        ScopedFileLock flock(::fileno(f));
        if (fresh)
            std::fputs(header.c_str(), f);
        std::fprintf(f, "entry digest=%s\n", digestHex(digest).c_str());
        std::fflush(f);
        ::fsync(::fileno(f));
    } catch (const SimError &err) {
        warn("%s: index append skipped: %s", what.c_str(), err.what());
    }
    std::fclose(f);
}

void
BlobIndex::persistIndex() const
{
    std::unordered_set<std::uint64_t> snapshot;
    {
        std::lock_guard<std::mutex> lock(mu);
        snapshot = known;
    }
    // pid-unique tmp (so recovery sweeps it once its writer is dead):
    // two processes compacting at once must not clobber each other's
    // staging file — either rename landing is correct.
    const std::string tmp = uniqueTmpPath(indexPath);
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("%s: cannot rewrite index '%s': %s", what.c_str(),
             indexPath.c_str(), std::strerror(errno));
        return;
    }
    std::fputs(header.c_str(), f);
    for (const std::uint64_t digest : snapshot)
        std::fprintf(f, "entry digest=%s\n", digestHex(digest).c_str());
    const bool ok = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    std::fclose(f);
    if (!ok || std::rename(tmp.c_str(), indexPath.c_str()) != 0) {
        ::unlink(tmp.c_str());
        warn("%s: cannot land the compacted index '%s'", what.c_str(),
             indexPath.c_str());
    }
}

std::size_t
BlobIndex::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return known.size();
}

} // namespace rc
