#include "snapshot/serializer.hh"

#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "common/log.hh"
#include "common/tmpfile.hh"

namespace rc
{

namespace
{

constexpr char snapMagic[8] = {'R', 'C', 'S', 'N', 'A', 'P', '0', '1'};
// v2: Cmp's "clock" section gained the telemetry sampler's next epoch
// boundary (sampleNext).
constexpr std::uint32_t snapVersion = 2;
constexpr std::size_t headerBytes = sizeof(snapMagic) + 4;
constexpr std::size_t trailerBytes = 4;

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t crc)
{
    static const auto table = [] {
        std::vector<std::uint32_t> t(256);
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    const auto *p = static_cast<const std::uint8_t *>(data);
    crc = ~crc;
    for (std::size_t i = 0; i < len; ++i)
        crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
    return ~crc;
}

// --------------------------------------------------------------------------
// Serializer
// --------------------------------------------------------------------------

void
Serializer::beginSection(const char *name)
{
    const std::size_t len = std::strlen(name);
    RC_ASSERT(len > 0 && len < 0x10000, "section name length out of range");
    putU8(static_cast<std::uint8_t>(len));
    putU8(static_cast<std::uint8_t>(len >> 8));
    putBytes(name, len);
    open.push_back(buf.size());
    putU64(0); // length, patched by endSection
}

void
Serializer::endSection(const char *)
{
    RC_ASSERT(!open.empty(), "endSection without matching beginSection");
    const std::size_t at = open.back();
    open.pop_back();
    const std::uint64_t len = buf.size() - (at + 8);
    for (int i = 0; i < 8; ++i)
        buf[at + i] = static_cast<std::uint8_t>(len >> (8 * i));
}

void
Serializer::putU8(std::uint8_t v)
{
    buf.push_back(v);
}

void
Serializer::putU32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
Serializer::putU64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
Serializer::putDouble(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
Serializer::putString(const std::string &v)
{
    putU64(v.size());
    putBytes(v.data(), v.size());
}

void
Serializer::putBytes(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf.insert(buf.end(), p, p + len);
}

std::uint32_t
Serializer::payloadCrc() const
{
    return crc32(buf.data(), buf.size());
}

std::vector<std::uint8_t>
Serializer::image() const
{
    RC_ASSERT(open.empty(), "snapshot image with %zu unclosed section(s)",
              open.size());
    std::vector<std::uint8_t> out;
    out.reserve(headerBytes + buf.size() + trailerBytes);
    out.insert(out.end(), snapMagic, snapMagic + sizeof(snapMagic));
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(snapVersion >> (8 * i)));
    out.insert(out.end(), buf.begin(), buf.end());
    const std::uint32_t crc = payloadCrc();
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    return out;
}

void
Serializer::writeFile(const std::string &path) const
{
    const std::vector<std::uint8_t> bytes = image();
    const std::string tmp = uniqueTmpPath(path);
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throwSimError(SimError::Kind::Snapshot,
                      "cannot open '%s' for writing", tmp.c_str());
    const bool wrote =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
        std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    std::fclose(f);
    if (!wrote) {
        std::remove(tmp.c_str());
        throwSimError(SimError::Kind::Snapshot,
                      "short write persisting snapshot '%s'", tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throwSimError(SimError::Kind::Snapshot,
                      "cannot rename '%s' into place", tmp.c_str());
    }
}

// --------------------------------------------------------------------------
// Deserializer
// --------------------------------------------------------------------------

Deserializer::Deserializer(const std::string &path) : origin(path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throwSimError(SimError::Kind::Snapshot,
                      "cannot open snapshot '%s'", path.c_str());
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<std::uint8_t> bytes(size > 0 ? size : 0);
    const std::size_t got = bytes.empty()
        ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (got != bytes.size())
        throwSimError(SimError::Kind::Snapshot,
                      "short read loading snapshot '%s'", path.c_str());
    buf = std::move(bytes);
    validate();
}

Deserializer::Deserializer(std::vector<std::uint8_t> image_bytes)
    : origin("<memory>"), buf(std::move(image_bytes))
{
    validate();
}

void
Deserializer::validate()
{
    // Strip and verify header/trailer; `buf` keeps the payload only.
    if (buf.size() < headerBytes + trailerBytes)
        throwSimError(SimError::Kind::Snapshot,
                      "snapshot '%s' is truncated: %zu byte(s), need at "
                      "least %zu", origin.c_str(), buf.size(),
                      headerBytes + trailerBytes);
    if (std::memcmp(buf.data(), snapMagic, sizeof(snapMagic)) != 0)
        throwSimError(SimError::Kind::Snapshot,
                      "'%s' is not a reuse-cache snapshot (bad magic)",
                      origin.c_str());
    std::uint32_t version = 0;
    for (int i = 0; i < 4; ++i)
        version |= std::uint32_t{buf[sizeof(snapMagic) + i]} << (8 * i);
    if (version != snapVersion)
        throwSimError(SimError::Kind::Snapshot,
                      "snapshot '%s' has unsupported schema version %u "
                      "(expected %u)", origin.c_str(), version, snapVersion);
    const std::size_t payloadEnd = buf.size() - trailerBytes;
    std::uint32_t stored = 0;
    for (int i = 0; i < 4; ++i)
        stored |= std::uint32_t{buf[payloadEnd + i]} << (8 * i);
    crc = crc32(buf.data() + headerBytes, payloadEnd - headerBytes);
    if (stored != crc)
        throwSimError(SimError::Kind::Snapshot,
                      "snapshot '%s' failed its CRC check "
                      "(stored %08x, computed %08x)",
                      origin.c_str(), stored, crc);
    buf.erase(buf.begin() + payloadEnd, buf.end());
    buf.erase(buf.begin(), buf.begin() + headerBytes);
}

const std::uint8_t *
Deserializer::need(std::size_t len, const char *what)
{
    const std::size_t bound = bounds.empty() ? buf.size() : bounds.back();
    if (cur + len > bound)
        throwSimError(SimError::Kind::Snapshot,
                      "snapshot '%s': reading %s (%zu byte(s)) would cross "
                      "a section boundary at offset %zu",
                      origin.c_str(), what, len, bound);
    const std::uint8_t *p = buf.data() + cur;
    cur += len;
    return p;
}

void
Deserializer::beginSection(const char *name)
{
    const std::uint8_t *lenBytes = need(2, "section name length");
    const std::size_t nameLen = lenBytes[0] | (std::size_t{lenBytes[1]} << 8);
    const std::uint8_t *nameBytes = need(nameLen, "section name");
    if (nameLen != std::strlen(name) ||
        std::memcmp(nameBytes, name, nameLen) != 0)
        throwSimError(SimError::Kind::Snapshot,
                      "snapshot '%s': expected section '%s', found '%.*s'",
                      origin.c_str(), name, static_cast<int>(nameLen),
                      reinterpret_cast<const char *>(nameBytes));
    const std::uint64_t len = getU64();
    const std::size_t bound = bounds.empty() ? buf.size() : bounds.back();
    if (len > bound - cur)
        throwSimError(SimError::Kind::Snapshot,
                      "snapshot '%s': section '%s' claims %llu byte(s) but "
                      "only %zu remain", origin.c_str(), name,
                      static_cast<unsigned long long>(len), bound - cur);
    bounds.push_back(cur + len);
}

void
Deserializer::endSection(const char *)
{
    RC_ASSERT(!bounds.empty(), "endSection without matching beginSection");
    if (cur != bounds.back())
        throwSimError(SimError::Kind::Snapshot,
                      "snapshot '%s': section not fully consumed "
                      "(%zu byte(s) left)", origin.c_str(),
                      bounds.back() - cur);
    bounds.pop_back();
}

std::uint8_t
Deserializer::getU8()
{
    return *need(1, "u8");
}

std::uint32_t
Deserializer::getU32()
{
    const std::uint8_t *p = need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t{p[i]} << (8 * i);
    return v;
}

std::uint64_t
Deserializer::getU64()
{
    const std::uint8_t *p = need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t{p[i]} << (8 * i);
    return v;
}

double
Deserializer::getDouble()
{
    const std::uint64_t bits = getU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Deserializer::getString()
{
    const std::uint64_t len = getU64();
    const std::uint8_t *p = need(len, "string payload");
    return std::string(reinterpret_cast<const char *>(p), len);
}

void
Deserializer::getBytes(void *out, std::size_t len)
{
    std::memcpy(out, need(len, "byte array"), len);
}

// --------------------------------------------------------------------------
// Vector helpers
// --------------------------------------------------------------------------

namespace
{

void
checkCount(std::uint64_t have, std::size_t want, const char *what)
{
    if (have != want)
        throwSimError(SimError::Kind::Snapshot,
                      "%s: checkpoint carries %llu element(s), the live "
                      "structure has %zu", what,
                      static_cast<unsigned long long>(have), want);
}

} // namespace

void
saveVec(Serializer &s, const std::vector<std::uint8_t> &v)
{
    s.putU64(v.size());
    s.putBytes(v.data(), v.size());
}

void
saveVec(Serializer &s, const std::vector<std::uint32_t> &v)
{
    s.putU64(v.size());
    for (std::uint32_t x : v)
        s.putU32(x);
}

void
saveVec(Serializer &s, const std::vector<std::uint64_t> &v)
{
    s.putU64(v.size());
    for (std::uint64_t x : v)
        s.putU64(x);
}

void
restoreVec(Deserializer &d, std::vector<std::uint8_t> &v, const char *what)
{
    checkCount(d.getU64(), v.size(), what);
    d.getBytes(v.data(), v.size());
}

void
restoreVec(Deserializer &d, std::vector<std::uint32_t> &v, const char *what)
{
    checkCount(d.getU64(), v.size(), what);
    for (std::uint32_t &x : v)
        x = d.getU32();
}

void
restoreVec(Deserializer &d, std::vector<std::uint64_t> &v, const char *what)
{
    checkCount(d.getU64(), v.size(), what);
    for (std::uint64_t &x : v)
        x = d.getU64();
}

} // namespace rc
