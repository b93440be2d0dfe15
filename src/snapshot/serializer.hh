/**
 * @file
 * Versioned, CRC-guarded binary checkpoint format.
 *
 * A snapshot image is:
 *
 *   [0..7]   magic "RCSNAP01"
 *   [8..11]  schema version (u32, little-endian)
 *   [12..N)  payload: nested named sections
 *   [N..N+4) CRC32 of the payload
 *
 * A section is framed as `u16 name length, name bytes, u64 payload
 * length, payload`; the length is back-patched when the section is
 * closed, so a reader can both verify it is looking at the structure it
 * expects (name check) and bound every read (length check).  All scalar
 * encodings are fixed-width little-endian.
 *
 * Every corruption path — short file, bad magic, unknown schema version,
 * CRC mismatch, wrong section name, reads past a section boundary, a
 * section not fully consumed — throws SimError(Kind::Snapshot), so a bad
 * checkpoint quarantines (or restarts) one run instead of killing the
 * sweep, exactly like a corrupt trace file.
 */

#ifndef RC_SNAPSHOT_SERIALIZER_HH
#define RC_SNAPSHOT_SERIALIZER_HH

#include <cstdint>
#include <string>
#include <vector>

namespace rc
{

/** CRC-32 (IEEE 802.3) of @p len bytes, chainable via @p crc. */
std::uint32_t crc32(const void *data, std::size_t len,
                    std::uint32_t crc = 0);

/** Builds a snapshot image in memory; see the file comment for layout. */
class Serializer
{
  public:
    Serializer() = default;

    /** Open a named section (sections nest). */
    void beginSection(const char *name);

    /**
     * Close the innermost section, back-patching its length.  The
     * optional @p name is documentation at the call site only; pairing
     * is strictly LIFO.
     */
    void endSection(const char *name = nullptr);

    void putBool(bool v) { putU8(v ? 1 : 0); }
    void putU8(std::uint8_t v);
    void putU16(std::uint16_t v);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putI64(std::int64_t v) { putU64(static_cast<std::uint64_t>(v)); }
    void putDouble(double v);
    void putString(const std::string &v);
    void putBytes(const void *data, std::size_t len);

    /** Complete image (header + payload + CRC); all sections must be
     *  closed. */
    std::vector<std::uint8_t> image() const;

    /** The section-framed payload alone, without the container header
     *  and CRC: the canonical form content keys are built from.  All
     *  sections must be closed. */
    std::vector<std::uint8_t> payload() const;

    /** CRC32 of the payload alone (used as the journal's stat digest). */
    std::uint32_t payloadCrc() const;

    /**
     * Atomically write image() to @p path: the bytes go to a
     * pid-unique ".tmp" sibling (uniqueTmpPath()) which is fsync'd and
     * then renamed over the target, so a crash mid-write can never
     * leave a half-written checkpoint under the final name, and two
     * writers of one path never share a staging file.  Throws
     * SimError(Snapshot) on any I/O failure.
     */
    void writeFile(const std::string &path) const;

  private:
    std::vector<std::uint8_t> buf;  //!< payload only
    std::vector<std::size_t> open;  //!< offsets of unpatched length fields
};

/**
 * Reads a snapshot image.  The constructor validates magic, schema
 * version and CRC before any field is decoded; every get*() is bounds-
 * checked against the innermost open section.
 */
class Deserializer
{
  public:
    /** Load and validate @p path; throws SimError(Snapshot). */
    explicit Deserializer(const std::string &path);

    /** Validate an in-memory image (tests, in-process round trips). */
    explicit Deserializer(std::vector<std::uint8_t> image_bytes);

    /** Enter a section; throws if the next section is not @p name. */
    void beginSection(const char *name);

    /**
     * Leave a section; throws unless it was consumed exactly.  The
     * optional @p name is call-site documentation, like the writer's.
     */
    void endSection(const char *name = nullptr);

    bool getBool() { return getU8() != 0; }
    std::uint8_t getU8();
    std::uint32_t getU32();
    std::uint64_t getU64();
    std::int64_t getI64() { return static_cast<std::int64_t>(getU64()); }
    double getDouble();
    std::string getString();
    void getBytes(void *out, std::size_t len);

    /** CRC32 of the payload (matches Serializer::payloadCrc()). */
    std::uint32_t payloadCrc() const { return crc; }

  private:
    void validate();
    const std::uint8_t *need(std::size_t len, const char *what);

    std::string origin;             //!< path or "<memory>", for messages
    std::vector<std::uint8_t> buf;  //!< payload only
    std::size_t cur = 0;
    std::vector<std::size_t> bounds;  //!< end offsets of open sections
    std::uint32_t crc = 0;
};

/**
 * Vector-of-scalars helpers for the dominant "count + values" pattern.
 * The restore side requires the checkpointed count to match the live
 * vector's size (cache geometry is construction-derived, never restored)
 * and throws SimError(Snapshot) labelled with @p what otherwise.
 */
void saveVec(Serializer &s, const std::vector<std::uint8_t> &v);
void saveVec(Serializer &s, const std::vector<std::uint32_t> &v);
void saveVec(Serializer &s, const std::vector<std::uint64_t> &v);
void restoreVec(Deserializer &d, std::vector<std::uint8_t> &v,
                const char *what);
void restoreVec(Deserializer &d, std::vector<std::uint32_t> &v,
                const char *what);
void restoreVec(Deserializer &d, std::vector<std::uint64_t> &v,
                const char *what);

} // namespace rc

#endif // RC_SNAPSHOT_SERIALIZER_HH
