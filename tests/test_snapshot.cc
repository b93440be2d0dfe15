/**
 * @file
 * Checkpoint/restore tests: the snapshot codec itself (framing, CRC,
 * section discipline, corruption rejection), RNG and trace-cursor round
 * trips, and the headline property — saving a full Cmp mid-measurement
 * and restoring it into a fresh system continues to a bit-identical
 * end-of-run, for every SLLC organization and replacement policy.
 */

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/private_cache.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "sim/cmp.hh"
#include "sim/system_config.hh"
#include "sim/trace_file.hh"
#include "snapshot/serializer.hh"
#include "verify/integrity.hh"
#include "workloads/mixes.hh"

namespace rc
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + name;
}

/** Expect @p fn to throw SimError(Kind::Snapshot). */
template <typename Fn>
void
expectSnapshotError(Fn &&fn)
{
    try {
        fn();
        FAIL() << "expected SimError(Snapshot)";
    } catch (const SimError &err) {
        EXPECT_EQ(err.kind(), SimError::Kind::Snapshot) << err.what();
    }
}

TEST(SnapshotFormat, ScalarRoundTrip)
{
    Serializer s;
    s.beginSection("outer");
    s.putBool(true);
    s.putU8(0xab);
    s.putU32(0xdeadbeef);
    s.putU64(0x0123456789abcdefULL);
    s.putI64(-42);
    s.putDouble(3.25);
    s.beginSection("inner");
    s.putString("hello");
    s.endSection("inner");
    s.endSection("outer");

    Deserializer d(s.image());
    d.beginSection("outer");
    EXPECT_TRUE(d.getBool());
    EXPECT_EQ(d.getU8(), 0xab);
    EXPECT_EQ(d.getU32(), 0xdeadbeefu);
    EXPECT_EQ(d.getU64(), 0x0123456789abcdefULL);
    EXPECT_EQ(d.getI64(), -42);
    EXPECT_EQ(d.getDouble(), 3.25);
    d.beginSection("inner");
    EXPECT_EQ(d.getString(), "hello");
    d.endSection("inner");
    d.endSection("outer");
    EXPECT_EQ(d.payloadCrc(), s.payloadCrc());
}

TEST(SnapshotFormat, VectorRoundTripAndCountMismatch)
{
    const std::vector<std::uint64_t> v64 = {1, 2, 3};
    const std::vector<std::uint32_t> v32 = {7, 8};
    const std::vector<std::uint8_t> v8 = {0xaa, 0xbb, 0xcc, 0xdd};
    Serializer s;
    s.beginSection("vecs");
    saveVec(s, v64);
    saveVec(s, v32);
    saveVec(s, v8);
    s.endSection("vecs");

    {
        Deserializer d(s.image());
        d.beginSection("vecs");
        std::vector<std::uint64_t> a(3);
        std::vector<std::uint32_t> b(2);
        std::vector<std::uint8_t> c(4);
        restoreVec(d, a, "a");
        restoreVec(d, b, "b");
        restoreVec(d, c, "c");
        d.endSection("vecs");
        EXPECT_EQ(a, v64);
        EXPECT_EQ(b, v32);
        EXPECT_EQ(c, v8);
    }
    {
        // A live vector of the wrong size must be rejected, not resized:
        // geometry is construction-derived, never restored.
        Deserializer d(s.image());
        d.beginSection("vecs");
        std::vector<std::uint64_t> wrong(5);
        expectSnapshotError([&] { restoreVec(d, wrong, "wrong"); });
    }
}

/** Bit-at-a-time CRC-32 (IEEE 802.3): the definition crc32() must match. */
std::uint32_t
bitwiseCrc32(const std::uint8_t *p, std::size_t len, std::uint32_t crc = 0)
{
    crc = ~crc;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
    return ~crc;
}

// The image format is fixed-width little-endian whatever the host: pin
// the exact bytes of one put of every width, vector helpers included.
TEST(SnapshotFormat, ImageBytesAreFixedLittleEndian)
{
    Serializer s;
    s.beginSection("ab");
    s.putU8(0x01);
    s.putU16(0x0302);
    s.putU32(0x07060504);
    s.putU64(0x0f0e0d0c0b0a0908ULL);
    saveVec(s, std::vector<std::uint32_t>{0x13121110});
    saveVec(s, std::vector<std::uint64_t>{0x1b1a191817161514ULL});
    s.endSection("ab");

    const std::vector<std::uint8_t> payload = {
        0x02, 0x00, 'a', 'b',                            // section name
        0x2b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // length 43
        0x01,                                            // u8
        0x02, 0x03,                                      // u16
        0x04, 0x05, 0x06, 0x07,                          // u32
        0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,  // u64
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // u32 vec count
        0x10, 0x11, 0x12, 0x13,
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // u64 vec count
        0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x1b,
    };
    std::vector<std::uint8_t> want = {'R', 'C', 'S', 'N', 'A', 'P', '0',
                                      '1', 0x02, 0x00, 0x00, 0x00};
    want.insert(want.end(), payload.begin(), payload.end());
    const std::uint32_t crc = bitwiseCrc32(payload.data(), payload.size());
    for (int i = 0; i < 4; ++i)
        want.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    EXPECT_EQ(s.image(), want);
    EXPECT_EQ(s.payloadCrc(), crc);

    Deserializer d(want);
    d.beginSection("ab");
    EXPECT_EQ(d.getU8(), 0x01);
    EXPECT_EQ(d.getU8(), 0x02); // the u16, a byte at a time
    EXPECT_EQ(d.getU8(), 0x03);
    EXPECT_EQ(d.getU32(), 0x07060504u);
    EXPECT_EQ(d.getU64(), 0x0f0e0d0c0b0a0908ULL);
    std::vector<std::uint32_t> v32(1);
    std::vector<std::uint64_t> v64(1);
    restoreVec(d, v32, "v32");
    restoreVec(d, v64, "v64");
    d.endSection("ab");
    EXPECT_EQ(v32.front(), 0x13121110u);
    EXPECT_EQ(v64.front(), 0x1b1a191817161514ULL);
}

TEST(SnapshotCrc, CheckValue)
{
    const char *check = "123456789";
    EXPECT_EQ(crc32(check, 9), 0xcbf43926u);
    EXPECT_EQ(crc32(check, 0), 0u);
}

// Slice-by-8 must equal the bytewise definition at every length around
// its 8-byte stride and at odd start alignments, chained or not.
TEST(SnapshotCrc, SliceBy8MatchesBytewise)
{
    Rng rng(0xc3c3);
    std::vector<std::uint8_t> buf(64 + 16);
    for (int round = 0; round < 8; ++round) {
        for (std::uint8_t &b : buf)
            b = static_cast<std::uint8_t>(rng.next());
        for (std::size_t off : {0u, 1u, 3u, 5u, 7u}) {
            for (std::size_t len = 0; len <= 64; ++len) {
                const std::uint8_t *p = buf.data() + off;
                ASSERT_EQ(crc32(p, len), bitwiseCrc32(p, len))
                    << "offset " << off << " length " << len;
                const std::size_t cut = len / 3;
                EXPECT_EQ(crc32(p + cut, len - cut, crc32(p, cut)),
                          bitwiseCrc32(p, len));
            }
        }
    }
}

TEST(SnapshotFormat, FileRoundTripIsAtomicAndValid)
{
    const std::string path = tempPath("snap_roundtrip.bin");
    Serializer s;
    s.beginSection("top");
    s.putU64(99);
    s.endSection("top");
    s.writeFile(path);

    // No .tmp litter after a successful rename.
    std::FILE *tmp = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr);
    if (tmp)
        std::fclose(tmp);

    Deserializer d(path);
    d.beginSection("top");
    EXPECT_EQ(d.getU64(), 99u);
    d.endSection("top");
    std::remove(path.c_str());
}

TEST(SnapshotFormat, CorruptImagesAreRejected)
{
    Serializer s;
    s.beginSection("top");
    s.putU64(1234);
    s.endSection("top");
    const std::vector<std::uint8_t> good = s.image();

    // Bad magic.
    auto badMagic = good;
    badMagic[0] ^= 0xff;
    expectSnapshotError([&] { Deserializer d(badMagic); });

    // Unsupported schema version.
    auto badVersion = good;
    badVersion[8] ^= 0xff;
    expectSnapshotError([&] { Deserializer d(badVersion); });

    // Payload bit flip breaks the CRC.
    auto badPayload = good;
    badPayload[14] ^= 0x01;
    expectSnapshotError([&] { Deserializer d(badPayload); });

    // Trailer bit flip breaks the CRC comparison too.
    auto badCrc = good;
    badCrc[badCrc.size() - 1] ^= 0x01;
    expectSnapshotError([&] { Deserializer d(badCrc); });

    // Truncation: shorter than header+trailer, and mid-payload.
    expectSnapshotError(
        [&] { Deserializer d(std::vector<std::uint8_t>(8, 0)); });
    auto truncated = good;
    truncated.resize(truncated.size() - 5);
    expectSnapshotError([&] { Deserializer d(truncated); });
}

TEST(SnapshotFormat, SectionDisciplineIsEnforced)
{
    Serializer s;
    s.beginSection("alpha");
    s.putU64(7);
    s.endSection("alpha");

    // Wrong section name.
    {
        Deserializer d(s.image());
        expectSnapshotError([&] { d.beginSection("beta"); });
    }
    // Reading past the section boundary.
    {
        Deserializer d(s.image());
        d.beginSection("alpha");
        EXPECT_EQ(d.getU64(), 7u);
        expectSnapshotError([&] { d.getU64(); });
    }
    // Leaving a section before consuming it.
    {
        Deserializer d(s.image());
        d.beginSection("alpha");
        expectSnapshotError([&] { d.endSection("alpha"); });
    }
}

TEST(SnapshotRng, RawStateResumesTheStream)
{
    Rng a(12345);
    for (int i = 0; i < 17; ++i)
        (void)a.next();
    const std::uint64_t state = a.rawState();
    std::vector<std::uint64_t> expect;
    for (int i = 0; i < 32; ++i)
        expect.push_back(a.next());

    Rng b(999); // deliberately different seed; setRawState overrides it
    b.setRawState(state);
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(b.next(), expect[i]);
}

TEST(SnapshotTrace, SeekAndCursorRoundTrip)
{
    const std::string path = tempPath("snap_trace.bin");
    {
        TraceWriter w(path);
        for (std::uint64_t i = 0; i < 50; ++i) {
            MemRef ref;
            ref.addr = 0x1000 + i * 64;
            ref.think = static_cast<std::uint32_t>(i % 7);
            ref.op = (i % 3) == 0 ? MemOp::Write : MemOp::Read;
            w.write(ref);
        }
        w.close();
    }

    TraceReader a(path);
    for (int i = 0; i < 23; ++i)
        (void)a.next();
    EXPECT_EQ(a.consumed(), 23u);

    // seekToRecord lands exactly where sequential reads would.
    TraceReader sought(path);
    sought.seekToRecord(23);
    EXPECT_EQ(sought.consumed(), 23u);
    EXPECT_EQ(sought.next().addr, a.next().addr);

    // Seeking past the file size wraps like replay does.
    TraceReader wrapped(path);
    wrapped.seekToRecord(50 * 2 + 5);
    EXPECT_EQ(wrapped.wraps(), 2u);
    TraceReader slow(path);
    slow.seekToRecord(5);
    EXPECT_EQ(wrapped.next().addr, slow.next().addr);

    // save/restore moves the cursor through the snapshot codec.
    Serializer s;
    s.beginSection("cursor");
    a.save(s);
    s.endSection("cursor");
    TraceReader restored(path);
    Deserializer d(s.image());
    d.beginSection("cursor");
    restored.restore(d);
    d.endSection("cursor");
    EXPECT_EQ(restored.consumed(), a.consumed());
    EXPECT_EQ(restored.next().addr, a.next().addr);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The headline property: a mid-measurement snapshot restored into a
// fresh Cmp continues to a bit-identical end of run.
// ---------------------------------------------------------------------------

constexpr Cycle kWarmup = 20'000;
constexpr Cycle kMeasure = 80'000;

struct EndOfRun
{
    double aggregateIpc = 0.0;
    std::vector<double> coreIpc;
    std::vector<MpkiTriple> mpki;
    std::uint64_t refs = 0;
    Cycle horizon = 0;
    std::vector<std::pair<std::string, Counter>> llcStats;
};

EndOfRun
endOfRun(const Cmp &cmp)
{
    EndOfRun e;
    e.aggregateIpc = cmp.aggregateIpc();
    for (CoreId c = 0; c < cmp.numCores(); ++c) {
        e.coreIpc.push_back(cmp.ipc(c));
        e.mpki.push_back(cmp.measuredMpki(c));
    }
    e.refs = cmp.referencesProcessed();
    e.horizon = cmp.now();
    for (const StatSet::Entry &entry : cmp.llc().stats().entries())
        e.llcStats.emplace_back(entry.name, entry.value);
    return e;
}

void
expectSameEnd(const EndOfRun &a, const EndOfRun &b)
{
    EXPECT_EQ(a.aggregateIpc, b.aggregateIpc);
    ASSERT_EQ(a.coreIpc.size(), b.coreIpc.size());
    for (std::size_t c = 0; c < a.coreIpc.size(); ++c) {
        EXPECT_EQ(a.coreIpc[c], b.coreIpc[c]) << "core " << c;
        EXPECT_EQ(a.mpki[c].l1, b.mpki[c].l1) << "core " << c;
        EXPECT_EQ(a.mpki[c].l2, b.mpki[c].l2) << "core " << c;
        EXPECT_EQ(a.mpki[c].llc, b.mpki[c].llc) << "core " << c;
    }
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_EQ(a.horizon, b.horizon);
    ASSERT_EQ(a.llcStats.size(), b.llcStats.size());
    for (std::size_t i = 0; i < a.llcStats.size(); ++i) {
        EXPECT_EQ(a.llcStats[i].first, b.llcStats[i].first);
        EXPECT_EQ(a.llcStats[i].second, b.llcStats[i].second)
            << "counter " << a.llcStats[i].first;
    }
}

/** Last snapshot image the hook captured, plus which phase it saw. */
struct Captured
{
    std::vector<std::uint8_t> image;
    int phase = -1; // 0 = warmup, 1 = measurement
};

/**
 * Run warmup+measure on a fresh Cmp, capturing a snapshot from the
 * periodic hook (exactly like the harness does); then restore the last
 * mid-measurement image into a second fresh Cmp and drive it to the
 * same end the way a resumed run would.
 */
void
checkSaveRestoreProperty(const SystemConfig &sys, const Mix &mix)
{
    Captured cap;
    int phase = 0;

    Cmp a(sys, buildMixStreams(mix, sys.seed, sys.capacityScale));
    a.setSnapshotHook(2'000, [&cap, &phase](const Cmp &c, Cycle) {
        Serializer s;
        c.save(s);
        cap.image = s.image();
        cap.phase = phase;
    });
    a.run(kWarmup);
    a.beginMeasurement();
    phase = 1;
    a.run(kMeasure);
    const EndOfRun ref = endOfRun(a);

    ASSERT_EQ(cap.phase, 1)
        << "no snapshot fired during measurement -- lower the cadence";

    Cmp b(sys, buildMixStreams(mix, sys.seed, sys.capacityScale));
    Deserializer d(cap.image);
    b.restore(d);
    IntegrityChecker(b).enforce(b.now());
    // The snapshot was taken inside run(kMeasure), before the horizon
    // advanced, so replaying the same call reaches the identical end.
    b.run(kMeasure);
    expectSameEnd(endOfRun(b), ref);
}

TEST(SnapshotCmp, ConventionalEveryPolicyResumesBitIdentically)
{
    const Mix mix = makeMixes(1, 8, 31)[0];
    for (const ReplKind kind :
         {ReplKind::LRU, ReplKind::NRU, ReplKind::NRR, ReplKind::Random,
          ReplKind::Clock, ReplKind::SRRIP, ReplKind::BRRIP,
          ReplKind::DRRIP}) {
        SCOPED_TRACE(toString(kind));
        checkSaveRestoreProperty(conventionalSystem(8.0, kind, 8), mix);
    }
}

TEST(SnapshotCmp, ReuseCacheResumesBitIdentically)
{
    const Mix mix = makeMixes(1, 8, 32)[0];
    checkSaveRestoreProperty(reuseSystem(4.0, 1.0, 0, 8), mix);
    // Set-associative data array exercises the fwd/back pointer paths.
    checkSaveRestoreProperty(reuseSystem(4.0, 1.0, 8, 8), mix);
}

TEST(SnapshotCmp, NcidResumesBitIdentically)
{
    const Mix mix = makeMixes(1, 8, 33)[0];
    checkSaveRestoreProperty(ncidSystem(4.0, 1.0, 8), mix);
}

TEST(SnapshotCmp, MismatchedConfigurationIsRejected)
{
    const Mix mix = makeMixes(1, 8, 34)[0];
    const SystemConfig reuse = reuseSystem(4.0, 1.0, 0, 8);
    Cmp a(reuse, buildMixStreams(mix, reuse.seed, reuse.capacityScale));
    a.run(5'000);
    Serializer s;
    a.save(s);

    // A reuse-cache checkpoint must not restore into a conventional
    // system: the meta section catches it before any state moves.
    const SystemConfig conv = baselineSystem(8);
    Cmp b(conv, buildMixStreams(mix, conv.seed, conv.capacityScale));
    Deserializer d(s.image());
    expectSnapshotError([&] { b.restore(d); });
}

TEST(SnapshotCmp, CorruptedCheckpointIsRejected)
{
    const Mix mix = makeMixes(1, 8, 35)[0];
    const SystemConfig sys = baselineSystem(8);
    Cmp a(sys, buildMixStreams(mix, sys.seed, sys.capacityScale));
    a.run(5'000);
    Serializer s;
    a.save(s);
    auto bytes = s.image();
    bytes[bytes.size() / 2] ^= 0x10;
    expectSnapshotError([&] { Deserializer d(bytes); });
}

// ---------------------------------------------------------------------------
// SoA tag arrays: the split tag/valid/payload lanes serialize through a
// translation layer (invalid ways write a zero tag regardless of the
// in-memory sentinel).  save -> restore -> save must reproduce the
// exact bytes, or the translation is asymmetric and the second
// generation of checkpoints diverges from the first.
// ---------------------------------------------------------------------------

TEST(SnapshotSoA, TagStoreDoubleSaveIsByteStable)
{
    TagStore a(CacheGeometry(16, 4), "a");
    // Populate with history: fills, LRU touches and invalidations, so
    // some ways are invalid-with-a-past rather than never-used.
    const auto line = [](std::uint64_t n) { return Addr{n} << 6; };
    for (std::uint64_t n = 0; n < 24; ++n)
        a.fill(line(n * 3 + 1), n % 2 ? PrivState::M : PrivState::S);
    for (std::uint64_t n = 0; n < 24; n += 4)
        a.lookup(line(n * 3 + 1));
    for (std::uint64_t n = 0; n < 24; n += 5)
        a.invalidate(line(n * 3 + 1));

    Serializer s1;
    a.save(s1);

    TagStore b(CacheGeometry(16, 4), "b");
    Deserializer d(s1.image());
    b.restore(d);

    // Behavior carries over: resident lines resident, invalidated gone.
    EXPECT_EQ(a.residentCount(), b.residentCount());
    EXPECT_EQ(b.peek(line(1)) != nullptr, a.peek(line(1)) != nullptr);
    EXPECT_EQ(b.peek(line(16)), nullptr); // line(5*3+1) was invalidated

    Serializer s2;
    b.save(s2);
    EXPECT_EQ(s1.image(), s2.image())
        << "TagStore snapshot is not byte-stable across a round trip";
}

/**
 * A TagStore image with the given tag and validity lanes (state S,
 * clean, zero LRU stamps), in the layout TagStore::save() writes.
 */
std::vector<std::uint8_t>
tagStoreImage(const std::vector<std::uint64_t> &tags,
              const std::vector<std::uint8_t> &valid)
{
    Serializer s;
    s.putU64(tags.size());
    for (std::uint64_t t : tags) {
        s.putU64(t);
        s.putU8(static_cast<std::uint8_t>(PrivState::S));
        s.putBool(false);
    }
    saveVec(s, valid);
    s.beginSection("repl");
    s.putU64(0);
    saveVec(s, std::vector<std::uint64_t>(tags.size(), 0));
    s.endSection();
    return s.image();
}

TEST(SnapshotSoA, TagStoreRestoreRejectsBadValidByte)
{
    // Two sets of 4 ways; tags 5 repeat only across sets or in an
    // invalid way, which is well formed.
    TagStore ok(CacheGeometry(8, 4), "ok");
    Deserializer good(
        tagStoreImage({5, 0, 5, 0, 5, 6, 7, 8}, {1, 0, 0, 0, 1, 1, 1, 1}));
    ok.restore(good);
    EXPECT_EQ(ok.residentCount(), 5u);
    // The restored free ways are found by the sentinel scan.
    std::uint32_t way = 99;
    EXPECT_FALSE(ok.fill(Addr{(9 * 2) << 6}, PrivState::S, &way).valid);
    EXPECT_EQ(way, 1u);

    TagStore ts(CacheGeometry(8, 4), "t");
    Deserializer bad(
        tagStoreImage({5, 0, 5, 0, 5, 6, 7, 8}, {1, 0, 2, 0, 1, 1, 1, 1}));
    expectSnapshotError([&] { ts.restore(bad); });
}

TEST(SnapshotSoA, TagStoreRestoreRejectsValidSentinelTag)
{
    // A valid way carrying the invalid-way sentinel would look free to
    // fill() and be overwritten without an eviction.
    TagStore ts(CacheGeometry(4, 4), "t");
    Deserializer d(tagStoreImage({1, ~std::uint64_t{0}, 3, 4}, {1, 1, 1, 1}));
    expectSnapshotError([&] { ts.restore(d); });
}

TEST(SnapshotSoA, TagStoreRestoreRejectsDuplicateValidTags)
{
    TagStore ts(CacheGeometry(8, 4), "t");
    Deserializer d(
        tagStoreImage({1, 2, 3, 4, 5, 7, 0, 7}, {1, 1, 1, 1, 1, 1, 0, 1}));
    expectSnapshotError([&] { ts.restore(d); });
}

TEST(SnapshotSoA, CmpDoubleSaveIsByteStable)
{
    const Mix mix = makeMixes(1, 8, 37)[0];
    // One system per SLLC organization: covers the private TagStore
    // lanes plus the conventional tag lane, the reuse tag/data lanes
    // and the NCID arrays in a single sweep.
    const SystemConfig systems[] = {
        conventionalSystem(8.0, ReplKind::SRRIP, 8),
        reuseSystem(4.0, 1.0, 8, 8),
        ncidSystem(4.0, 1.0, 8),
    };
    for (const SystemConfig &sys : systems) {
        Cmp a(sys, buildMixStreams(mix, sys.seed, sys.capacityScale));
        a.run(20'000);
        Serializer s1;
        a.save(s1);

        Cmp b(sys, buildMixStreams(mix, sys.seed, sys.capacityScale));
        Deserializer d(s1.image());
        b.restore(d);
        Serializer s2;
        b.save(s2);
        EXPECT_EQ(s1.image(), s2.image())
            << "Cmp snapshot is not byte-stable across a round trip";
    }
}

TEST(SnapshotCmp, AbortFlagThrowsHang)
{
    const Mix mix = makeMixes(1, 8, 36)[0];
    const SystemConfig sys = baselineSystem(8);
    Cmp cmp(sys, buildMixStreams(mix, sys.seed, sys.capacityScale));
    std::atomic<bool> abortFlag{false};
    bool dumped = false;
    cmp.setAbortFlag(&abortFlag, [&dumped](const Cmp &) { dumped = true; });
    std::atomic<std::uint64_t> beat{0};
    cmp.setProgressCounter(&beat);

    cmp.run(5'000);
    EXPECT_GT(beat.load(), 0u);

    abortFlag.store(true);
    try {
        cmp.run(5'000);
        FAIL() << "expected SimError(Hang)";
    } catch (const SimError &err) {
        EXPECT_EQ(err.kind(), SimError::Kind::Hang) << err.what();
    }
    EXPECT_TRUE(dumped);
}

} // namespace
} // namespace rc
