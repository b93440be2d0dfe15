#include "snapshot/serializer.hh"

#include <array>
#include <bit>
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

/** @p v in little-endian byte order (a no-op on little-endian hosts). */
template <typename T>
T
toLittle(T v)
{
    if constexpr (std::endian::native == std::endian::big) {
        T out = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            out = static_cast<T>(out << 8 | ((v >> (8 * i)) & 0xffu));
        return out;
    }
    return v;
}

/** Write @p v at @p p as sizeof(T) little-endian bytes. */
template <typename T>
void
storeLe(std::uint8_t *p, T v)
{
    v = toLittle(v);
    std::memcpy(p, &v, sizeof(T));
}

/** Append @p v to @p buf as sizeof(T) little-endian bytes. */
template <typename T>
void
appendLe(std::vector<std::uint8_t> &buf, T v)
{
    const std::size_t at = buf.size();
    buf.resize(at + sizeof(T));
    storeLe(buf.data() + at, v);
}

/** Read sizeof(T) little-endian bytes at @p p. */
template <typename T>
T
loadLe(const std::uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return toLittle(v);
}

/** Slice-by-8 CRC tables: crcTables[0] is the bytewise table, and
 *  crcTables[k][i] advances crcTables[k - 1][i] by one zero byte. */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables &
crcTables()
{
    static const CrcTables t = [] {
        CrcTables out{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            out[0][i] = c;
        }
        for (std::size_t k = 1; k < out.size(); ++k) {
            for (std::uint32_t i = 0; i < 256; ++i) {
                const std::uint32_t prev = out[k - 1][i];
                out[k][i] = out[0][prev & 0xffu] ^ (prev >> 8);
            }
        }
        return out;
    }();
    return t;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t crc)
{
    const CrcTables &t = crcTables();
    const auto *p = static_cast<const std::uint8_t *>(data);
    crc = ~crc;
    // Eight bytes per step: the CRC register folds into the first four,
    // and each byte's contribution is looked up already advanced past
    // the bytes that follow it.
    for (; len >= 8; len -= 8, p += 8) {
        const std::uint32_t lo = loadLe<std::uint32_t>(p) ^ crc;
        const std::uint32_t hi = loadLe<std::uint32_t>(p + 4);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; len > 0; --len, ++p)
        crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
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
    putU16(static_cast<std::uint16_t>(len));
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
    storeLe<std::uint64_t>(buf.data() + at, buf.size() - (at + 8));
}

void
Serializer::putU8(std::uint8_t v)
{
    buf.push_back(v);
}

void
Serializer::putU16(std::uint16_t v)
{
    appendLe(buf, v);
}

void
Serializer::putU32(std::uint32_t v)
{
    appendLe(buf, v);
}

void
Serializer::putU64(std::uint64_t v)
{
    appendLe(buf, v);
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
Serializer::payload() const
{
    RC_ASSERT(open.empty(), "snapshot payload with %zu unclosed section(s)",
              open.size());
    return buf;
}

std::vector<std::uint8_t>
Serializer::image() const
{
    RC_ASSERT(open.empty(), "snapshot image with %zu unclosed section(s)",
              open.size());
    std::vector<std::uint8_t> out(headerBytes + buf.size() + trailerBytes);
    std::memcpy(out.data(), snapMagic, sizeof(snapMagic));
    storeLe(out.data() + sizeof(snapMagic), snapVersion);
    if (!buf.empty())
        std::memcpy(out.data() + headerBytes, buf.data(), buf.size());
    storeLe(out.data() + headerBytes + buf.size(), payloadCrc());
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
    const auto version = loadLe<std::uint32_t>(buf.data() + sizeof(snapMagic));
    if (version != snapVersion)
        throwSimError(SimError::Kind::Snapshot,
                      "snapshot '%s' has unsupported schema version %u "
                      "(expected %u)", origin.c_str(), version, snapVersion);
    const std::size_t payloadEnd = buf.size() - trailerBytes;
    const auto stored = loadLe<std::uint32_t>(buf.data() + payloadEnd);
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
    const std::size_t nameLen =
        loadLe<std::uint16_t>(need(2, "section name length"));
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
    return loadLe<std::uint32_t>(need(4, "u32"));
}

std::uint64_t
Deserializer::getU64()
{
    return loadLe<std::uint64_t>(need(8, "u64"));
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

namespace
{

/** Count + elements as little-endian scalars: one copy on
 *  little-endian hosts, element by element otherwise. */
template <typename T>
void
saveScalars(Serializer &s, const std::vector<T> &v)
{
    s.putU64(v.size());
    if constexpr (std::endian::native == std::endian::little) {
        s.putBytes(v.data(), v.size() * sizeof(T));
    } else {
        for (T x : v) {
            const T le = toLittle(x);
            s.putBytes(&le, sizeof(T));
        }
    }
}

template <typename T>
void
restoreScalars(Deserializer &d, std::vector<T> &v, const char *what)
{
    checkCount(d.getU64(), v.size(), what);
    d.getBytes(v.data(), v.size() * sizeof(T));
    if constexpr (std::endian::native != std::endian::little) {
        for (T &x : v)
            x = toLittle(x);
    }
}

} // namespace

void
saveVec(Serializer &s, const std::vector<std::uint32_t> &v)
{
    saveScalars(s, v);
}

void
saveVec(Serializer &s, const std::vector<std::uint64_t> &v)
{
    saveScalars(s, v);
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
    restoreScalars(d, v, what);
}

void
restoreVec(Deserializer &d, std::vector<std::uint64_t> &v, const char *what)
{
    restoreScalars(d, v, what);
}

} // namespace rc
