/**
 * @file
 * Service-layer unit tests below the daemon: wire framing and its
 * defect matrix, request canonicalization and digesting, the persistent
 * result cache (store/lookup, corruption demotion, collision safety,
 * crash recovery), the flock guard under concurrent multi-process
 * appenders, and the two service-layer fault-injection classes.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/filelock.hh"
#include "common/log.hh"
#include "service/frame.hh"
#include "service/result_cache.hh"
#include "service/run_request.hh"
#include "sim/fanout.hh"
#include "sim/feed_cache.hh"
#include "sim/run_result.hh"
#include "sim/system_config.hh"
#include "snapshot/serializer.hh"
#include "verify/fault_injector.hh"
#include "verify/integrity.hh"
#include "workloads/mixes.hh"

namespace rc
{
namespace
{

using svc::decodeFrame;
using svc::encodeFrame;
using svc::Frame;
using svc::MsgType;
using svc::RunRequest;

svc::RunRequest
tinyRequest(std::uint64_t seed = 42)
{
    svc::RunRequest req;
    req.config = baselineSystem(8);
    req.mix = makeMixes(1, req.config.numCores, 7)[0];
    req.seed = seed;
    req.scale = 8;
    req.warmup = 1'000;
    req.measure = 4'000;
    return req;
}

RunResult
syntheticResult(double salt)
{
    RunResult r;
    r.aggregateIpc = 1.25 + salt;
    r.coreIpc = {0.5 + salt, 0.75, 1.0};
    r.mpki = {{1.0, 2.0, 3.0 + salt}, {4.0, 5.0, 6.0}};
    r.fracNeverEnteredData = 0.42;
    r.llcAccesses = 1'000 + static_cast<Counter>(salt * 100);
    r.llcMemFetches = 200;
    r.dramReads = 150;
    return r;
}

std::string
scratchDir(const std::string &name)
{
    return std::string(::testing::TempDir()) + name + "-" +
           std::to_string(::getpid());
}

void
removeTree(const std::string &dir)
{
    // Only the flat files the cache creates; no recursion needed.
    const std::string cmd = "rm -rf '" + dir + "'";
    (void)std::system(cmd.c_str());
}

SimError::Kind
kindOfDecode(const std::vector<std::uint8_t> &bytes)
{
    try {
        decodeFrame(bytes);
    } catch (const SimError &err) {
        return err.kind();
    }
    return SimError::Kind::Integrity; // sentinel: "did not throw"
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

TEST(ServiceFrame, RoundTripsEveryMessageType)
{
    const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 7};
    for (const MsgType type :
         {MsgType::SimRequest, MsgType::SimResult, MsgType::Busy,
          MsgType::Error, MsgType::StatsRequest, MsgType::StatsReply,
          MsgType::Shutdown, MsgType::Ack}) {
        const Frame got = decodeFrame(encodeFrame(type, payload));
        EXPECT_EQ(got.type, type);
        EXPECT_EQ(got.payload, payload);
    }
    // Empty payloads are legal (StatsRequest, Shutdown, Ack).
    EXPECT_TRUE(decodeFrame(encodeFrame(MsgType::Ack, {})).payload.empty());
}

TEST(ServiceFrame, DefectMatrixIsClassifiedAsProtocol)
{
    const std::vector<std::uint8_t> payload(64, 0xab);
    const std::vector<std::uint8_t> good =
        encodeFrame(MsgType::SimResult, payload);
    ASSERT_EQ(kindOfDecode(good), SimError::Kind::Integrity); // clean

    // Bad magic.
    auto badMagic = good;
    badMagic[0] ^= 0xff;
    EXPECT_EQ(kindOfDecode(badMagic), SimError::Kind::Protocol);

    // Version mismatch.
    auto badVersion = good;
    badVersion[4] = static_cast<std::uint8_t>(svc::protocolVersion + 1);
    EXPECT_EQ(kindOfDecode(badVersion), SimError::Kind::Protocol);

    // Oversized length claim (rejected before any payload is read).
    auto oversized = good;
    const std::uint64_t huge = svc::maxFramePayload + 1;
    std::memcpy(oversized.data() + 8, &huge, sizeof(huge));
    EXPECT_EQ(kindOfDecode(oversized), SimError::Kind::Protocol);

    // Payload CRC mismatch.
    auto flipped = good;
    flipped[svc::frameHeaderBytes + 10] ^= 0x01;
    EXPECT_EQ(kindOfDecode(flipped), SimError::Kind::Protocol);

    // Truncation at every prefix length (header and payload).
    for (const std::size_t keep : {1ul, 8ul, 19ul, 20ul, 40ul,
                                   good.size() - 1}) {
        const std::vector<std::uint8_t> cut(good.begin(),
                                            good.begin() + keep);
        EXPECT_EQ(kindOfDecode(cut), SimError::Kind::Protocol)
            << "prefix of " << keep << " bytes";
    }
}

TEST(ServiceFrame, InjectedTruncationIsAlwaysDetected)
{
    FaultInjector inj(11);
    const std::vector<std::uint8_t> good =
        encodeFrame(MsgType::SimRequest, std::vector<std::uint8_t>(97, 3));
    for (int trial = 0; trial < 64; ++trial) {
        const std::vector<std::uint8_t> cut = inj.truncateFrame(good);
        ASSERT_FALSE(cut.empty());
        ASSERT_LT(cut.size(), good.size());
        EXPECT_EQ(kindOfDecode(cut), SimError::Kind::Protocol)
            << "kept " << cut.size() << " of " << good.size();
    }
}

TEST(ServiceFrame, SocketReadHonoursCleanEofVsTornFrame)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    // A whole frame arrives intact.
    const std::vector<std::uint8_t> payload = {9, 8, 7};
    svc::writeFrame(fds[0], MsgType::Busy, payload, 1'000);
    Frame got;
    ASSERT_TRUE(svc::readFrame(fds[1], got, 1'000));
    EXPECT_EQ(got.type, MsgType::Busy);
    EXPECT_EQ(got.payload, payload);

    // Peer closes between frames: clean end-of-stream, not an error.
    ::close(fds[0]);
    EXPECT_FALSE(svc::readFrame(fds[1], got, 1'000));
    ::close(fds[1]);

    // Peer dies mid-frame: that IS an error (torn stream).
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::vector<std::uint8_t> full =
        encodeFrame(MsgType::SimResult, payload);
    svc::writeRaw(fds[0], full.data(), full.size() / 2, 1'000);
    ::close(fds[0]);
    bool threw = false;
    try {
        svc::readFrame(fds[1], got, 1'000);
    } catch (const SimError &err) {
        threw = true;
        EXPECT_TRUE(err.kind() == SimError::Kind::Protocol ||
                    err.kind() == SimError::Kind::Io)
            << err.what();
    }
    EXPECT_TRUE(threw);
    ::close(fds[1]);
}

// ---------------------------------------------------------------------
// Canonicalization and digests
// ---------------------------------------------------------------------

TEST(ServiceRequest, DigestIsStableAndSensitiveToEveryKnob)
{
    const RunRequest base = tinyRequest();
    const std::uint64_t d0 = svc::requestDigest(base);
    EXPECT_EQ(svc::requestDigest(base), d0) << "digest must be pure";
    EXPECT_EQ(svc::canonicalBytes(base), svc::canonicalBytes(base));

    auto differs = [d0](const RunRequest &req, const char *what) {
        EXPECT_NE(svc::requestDigest(req), d0) << what;
    };
    RunRequest r = base;
    r.seed = 43;
    differs(r, "seed");
    r = base;
    r.scale = 4;
    differs(r, "scale");
    r = base;
    r.warmup += 1;
    differs(r, "warmup");
    r = base;
    r.measure += 1;
    differs(r, "measure");
    r = base;
    r.config = reuseSystem(1.0, 1.0, 0, 8);
    differs(r, "config");
    r = base;
    r.config.reuse.dataWays += 1;
    differs(r, "an inactive sub-config field still keys the digest");
    r = base;
    r.mix = makeMixes(2, base.config.numCores, 7)[1];
    differs(r, "mix");

    // The deadline shapes scheduling, never the answer: same key.
    r = base;
    r.deadlineMs = 5'000;
    EXPECT_EQ(svc::requestDigest(r), d0);
    EXPECT_EQ(svc::canonicalBytes(r), svc::canonicalBytes(base));
}

/**
 * The key bytes are an on-disk format: result-cache blobs and feed
 * blobs written by earlier builds are found by these digests.  Any
 * change to the config walk that moves a byte fails here.
 */
TEST(ServiceRequest, KeyBytesArePinned)
{
    struct Pin
    {
        SystemConfig cfg;
        const char *digest;
        std::size_t canonicalSize;
    };
    const Pin pins[] = {
        {baselineSystem(8), "09e853542cf5f8f2", 550},
        {reuseSystem(4.0, 1.0, 16, 8), "e0332b2b6ebd20bd", 548},
        {ncidSystem(8.0, 1.0, 8), "d91105df6e9a6493", 549},
    };
    for (const Pin &pin : pins) {
        RunRequest req = tinyRequest();
        req.config = pin.cfg;
        EXPECT_EQ(svc::digestHex(svc::requestDigest(req)), pin.digest);
        EXPECT_EQ(svc::canonicalBytes(req).size(), pin.canonicalSize)
            << pin.digest;
        const FeedKey key = feedKeyOf(req.config, req.mix, req.seed,
                                      req.scale, req.warmup, req.measure);
        EXPECT_EQ(svc::digestHex(key.digest), "8b0f49df17d1c66f")
            << pin.digest;
        EXPECT_EQ(key.bytes.size(), 276u) << pin.digest;
    }
}

/** Give field @p idx (walk order) of @p cfg another valid value;
 *  @return the side it is tagged with. */
FieldSide
perturbField(SystemConfig &cfg, std::size_t idx)
{
    std::size_t i = 0;
    FieldSide tagged = FieldSide::BackEnd;
    forEachField(cfg, [&](FieldSide side, auto &f) {
        if (i++ != idx)
            return;
        tagged = side;
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, bool>)
            f = !f;
        else if constexpr (std::is_enum_v<T>)
            f = static_cast<T>(static_cast<std::uint8_t>(f) == 0 ? 1 : 0);
        else if constexpr (std::is_same_v<T, double>)
            f += 0.5;
        else if constexpr (std::is_same_v<T, std::string>)
            f += "x";
        else
            f += 1;
    });
    return tagged;
}

/**
 * The ROADMAP's one-schema gate: every field the walk visits moves the
 * request key, moves the feed key and splits a fan-out group exactly
 * when it is tagged FrontEnd, and survives the wire codec.
 */
TEST(ServiceRequest, EveryFieldKeysExactlyItsSide)
{
    const RunRequest base = tinyRequest();
    std::size_t fields = 0, front = 0;
    forEachField(base.config, [&](FieldSide side, const auto &) {
        ++fields;
        front += side == FieldSide::FrontEnd;
    });
    EXPECT_EQ(fields, 60u);
    EXPECT_EQ(front, 14u);

    const auto feedKey = [](const RunRequest &r) {
        return feedKeyOf(r.config, r.mix, r.seed, r.scale, r.warmup,
                         r.measure)
            .bytes;
    };
    for (std::size_t idx = 0; idx < fields; ++idx) {
        SCOPED_TRACE("field " + std::to_string(idx));
        RunRequest r = base;
        const bool isFront =
            perturbField(r.config, idx) == FieldSide::FrontEnd;
        EXPECT_NE(svc::canonicalBytes(r), svc::canonicalBytes(base));
        EXPECT_NE(svc::requestDigest(r), svc::requestDigest(base));
        EXPECT_EQ(feedKey(r) != feedKey(base), isFront);
        EXPECT_EQ(FanoutCmp::samePrivatePrefix(r.config, base.config),
                  !isFront);

        Serializer s;
        svc::encodeRequest(s, r);
        Deserializer d(s.image());
        const RunRequest back = svc::decodeRequest(d);
        std::size_t differing = 0;
        forEachField(back.config, r.config,
                     [&](FieldSide, const auto &x, const auto &y) {
                         differing += !(x == y);
                     });
        EXPECT_EQ(differing, 0u);
    }
}

TEST(ServiceRequest, WireEncodingRoundTripsIncludingDeadline)
{
    RunRequest req = tinyRequest(1234);
    req.deadlineMs = 750;
    Serializer s;
    svc::encodeRequest(s, req);
    Deserializer d(s.image());
    const RunRequest back = svc::decodeRequest(d);
    EXPECT_EQ(svc::requestDigest(back), svc::requestDigest(req));
    EXPECT_EQ(back.deadlineMs, 750u);
    EXPECT_EQ(back.seed, req.seed);
    EXPECT_EQ(back.mix.apps, req.mix.apps);
}

TEST(ServiceRequest, DecodeRejectsSemanticGarbage)
{
    RunRequest req = tinyRequest();
    req.measure = 0; // a zero-length measurement is meaningless
    Serializer s;
    svc::encodeRequest(s, req);
    Deserializer d(s.image());
    bool threw = false;
    try {
        svc::decodeRequest(d);
    } catch (const SimError &err) {
        threw = true;
        EXPECT_EQ(err.kind(), SimError::Kind::Protocol);
    }
    EXPECT_TRUE(threw);
}

/** A replacement kind past the last enumerator would reach a panic in
 *  the cache factory; the codec turns it into a protocol error. */
TEST(ServiceRequest, DecodeRejectsUnknownReplacementKind)
{
    using Field = ReplKind &(*)(SystemConfig &);
    const std::pair<const char *, Field> fields[] = {
        {"conv.repl",
         [](SystemConfig &c) -> ReplKind & { return c.conv.repl; }},
        {"reuse.tagRepl",
         [](SystemConfig &c) -> ReplKind & { return c.reuse.tagRepl; }},
        {"reuse.dataRepl",
         [](SystemConfig &c) -> ReplKind & { return c.reuse.dataRepl; }},
    };
    for (const auto &[name, field] : fields) {
        RunRequest req = tinyRequest();
        field(req.config) = static_cast<ReplKind>(200);
        Serializer s;
        svc::encodeRequest(s, req);
        Deserializer d(s.image());
        try {
            svc::decodeRequest(d);
            ADD_FAILURE() << name << " = 200 was accepted";
        } catch (const SimError &err) {
            EXPECT_EQ(err.kind(), SimError::Kind::Protocol) << err.what();
        }
    }
}

TEST(ServiceRequest, DecodeRejectsMoreCoresThanTheMasksHold)
{
    RunRequest req = tinyRequest();
    req.config.numCores = maxCores + 1;
    req.mix.apps.assign(maxCores + 1, req.mix.apps.front());
    Serializer s;
    svc::encodeRequest(s, req);
    Deserializer d(s.image());
    try {
        svc::decodeRequest(d);
        FAIL() << "a 33-core request was accepted";
    } catch (const SimError &err) {
        EXPECT_EQ(err.kind(), SimError::Kind::Protocol) << err.what();
    }
}

// ---------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------

TEST(ResultCacheTest, StoreThenLookupIsBitIdentical)
{
    const std::string dir = scratchDir("svc-cache-roundtrip");
    removeTree(dir);
    svc::ResultCache cache(dir);
    const RunRequest req = tinyRequest();
    const RunResult res = syntheticResult(0.5);

    RunResult out;
    EXPECT_FALSE(cache.lookup(req, out));
    cache.store(req, res);
    ASSERT_TRUE(cache.lookup(req, out));
    EXPECT_TRUE(runResultsEqual(out, res));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);

    // A repeat hit is served from memory; evicting that layer forces
    // (and verifies) the disk path.
    ASSERT_TRUE(cache.lookup(req, out));
    EXPECT_EQ(cache.stats().memoryHits, 2u);
    cache.evictMemory(svc::requestDigest(req));
    ASSERT_TRUE(cache.lookup(req, out));
    EXPECT_TRUE(runResultsEqual(out, res));
    EXPECT_EQ(cache.stats().memoryHits, 2u) << "third hit came from disk";
    removeTree(dir);
}

TEST(ResultCacheTest, CorruptBlobDemotesToMissAndIsDropped)
{
    const std::string dir = scratchDir("svc-cache-corrupt");
    removeTree(dir);
    svc::ResultCache cache(dir);
    const RunRequest req = tinyRequest();
    cache.store(req, syntheticResult(1.0));
    const std::uint64_t digest = svc::requestDigest(req);

    FaultInjector inj(5);
    ASSERT_TRUE(inj.corruptBlobFile(cache.blobPath(digest)));
    cache.evictMemory(digest); // the disk copy must be re-read

    RunResult out;
    EXPECT_FALSE(cache.lookup(req, out)) << "corrupt blob served";
    EXPECT_EQ(cache.stats().corruptDropped, 1u);
    // The blob is unlinked on detection, so the next lookup is a plain
    // miss, not another CRC failure.
    EXPECT_FALSE(cache.lookup(req, out));
    EXPECT_EQ(cache.stats().corruptDropped, 1u);
    EXPECT_EQ(cache.size(), 0u);

    // The detection contract the injector advertises.
    EXPECT_EQ(detectedBy(FaultClass::CorruptBlob, LlcKind::Reuse),
              Invariant::BlobIntegrity);

    // Re-storing heals the entry.
    cache.store(req, syntheticResult(1.0));
    EXPECT_TRUE(cache.lookup(req, out));
    removeTree(dir);
}

TEST(ResultCacheTest, DigestCollisionMissesWithoutUnlinking)
{
    const std::string dir = scratchDir("svc-cache-collision");
    removeTree(dir);
    const RunRequest alice = tinyRequest(1);
    const RunRequest bob = tinyRequest(2);
    const std::uint64_t bobDigest = svc::requestDigest(bob);

    // Fabricate what a 64-bit collision would look like: a blob under
    // bob's digest whose canonical key bytes are alice's.
    {
        svc::ResultCache cache(dir);
        const std::vector<std::uint8_t> key = svc::canonicalBytes(alice);
        Serializer s;
        s.beginSection("memo");
        s.putU64(bobDigest);
        s.putString(std::string(key.begin(), key.end()));
        s.beginSection("result");
        saveRunResult(s, syntheticResult(9.0));
        s.endSection("result");
        s.endSection("memo");
        s.writeFile(cache.blobPath(bobDigest));
    }

    svc::ResultCache cache(dir); // adopts the blob on recovery
    ASSERT_EQ(cache.size(), 1u);
    RunResult out;
    EXPECT_FALSE(cache.lookup(bob, out))
        << "a collision must never serve the other request's result";
    EXPECT_EQ(cache.stats().corruptDropped, 0u)
        << "a collision is not corruption";
    // The foreign entry survives: it is some other request's valid data.
    struct stat st;
    EXPECT_EQ(::stat(cache.blobPath(bobDigest).c_str(), &st), 0);
    removeTree(dir);
}

TEST(ResultCacheTest, RecoveryAdoptsBlobsDropsTmpAndSurvivesTornEntries)
{
    const std::string dir = scratchDir("svc-cache-recover");
    removeTree(dir);
    const RunRequest a = tinyRequest(1), b = tinyRequest(2);
    const RunResult ra = syntheticResult(1.0), rb = syntheticResult(2.0);
    std::string tornPath;
    {
        svc::ResultCache cache(dir);
        cache.store(a, ra);
        cache.store(b, rb);
        tornPath = cache.blobPath(svc::requestDigest(b));
    }
    // Emulate kill -9: the index never saw entry b (rewrite it with only
    // a), blob b is torn mid-write, and a stale tmp file lingers.
    {
        std::FILE *f = std::fopen((dir + "/cache.index").c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("# rc result cache index v1\n", f);
        std::fprintf(f, "entry digest=%s\n",
                     svc::digestHex(svc::requestDigest(a)).c_str());
        std::fclose(f);
    }
    ASSERT_EQ(::truncate(tornPath.c_str(), 9), 0);
    {
        std::FILE *f =
            std::fopen((dir + "/memo-feed.bin.tmp").c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("half a write", f);
        std::fclose(f);
    }

    svc::ResultCache cache(dir);
    EXPECT_EQ(cache.size(), 2u) << "both blobs adopted";
    EXPECT_GE(cache.stats().recovered, 1u) << "unindexed blob adopted";
    struct stat st;
    EXPECT_NE(::stat((dir + "/memo-feed.bin.tmp").c_str(), &st), 0)
        << "stale tmp not cleaned";

    RunResult out;
    ASSERT_TRUE(cache.lookup(a, out));
    EXPECT_TRUE(runResultsEqual(out, ra));
    EXPECT_FALSE(cache.lookup(b, out)) << "torn blob served";
    EXPECT_EQ(cache.stats().corruptDropped, 1u);
    removeTree(dir);
}

/**
 * A sibling process opening the same directory (running recovery) while
 * this one stores must never cost a store: staging tmps carry the
 * writer's pid and recovery sweeps only those of dead writers.
 */
TEST(ResultCacheTest, SiblingRecoveryNeverDropsAnInFlightStore)
{
    const std::string dir = scratchDir("svc-cache-sibling");
    removeTree(dir);
    { svc::ResultCache cache(dir); }

    // Deterministic half: a live writer's tmp survives a sibling's
    // recovery, a dead writer's does not.
    const pid_t dead = ::fork();
    ASSERT_NE(dead, -1);
    if (dead == 0)
        ::_exit(0);
    ASSERT_EQ(::waitpid(dead, nullptr, 0), dead);
    const std::string liveTmp =
        dir + "/memo-live.bin." + std::to_string(::getpid()) + ".3.tmp";
    const std::string deadTmp =
        dir + "/memo-dead.bin." + std::to_string(dead) + ".3.tmp";
    for (const std::string &t : {liveTmp, deadTmp}) {
        std::FILE *f = std::fopen(t.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fclose(f);
    }

    // Racing half: the child re-opens the directory over and over while
    // the parent stores.
    constexpr int kStores = 150;
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        try {
            for (int i = 0; i < kStores * 2; ++i)
                svc::ResultCache sibling(dir);
        } catch (...) {
            ::_exit(2);
        }
        ::_exit(0);
    }
    {
        svc::ResultCache cache(dir);
        for (int i = 0; i < kStores; ++i)
            cache.store(tinyRequest(1000 + i), syntheticResult(0.01 * i));
        EXPECT_EQ(cache.stats().stores, static_cast<std::uint64_t>(kStores));
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    struct stat st;
    EXPECT_EQ(::stat(liveTmp.c_str(), &st), 0) << "live writer's tmp swept";
    EXPECT_NE(::stat(deadTmp.c_str(), &st), 0) << "dead writer's tmp kept";
    ::unlink(liveTmp.c_str());

    svc::ResultCache cache(dir);
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(kStores));
    for (int i = 0; i < kStores; ++i) {
        RunResult out;
        ASSERT_TRUE(cache.lookup(tinyRequest(1000 + i), out)) << i;
        EXPECT_TRUE(runResultsEqual(out, syntheticResult(0.01 * i))) << i;
    }
    removeTree(dir);
}

// ---------------------------------------------------------------------
// flock guard under concurrent multi-process appenders (ctest -L
// integrity runs this under TSan too)
// ---------------------------------------------------------------------

TEST(ServiceLock, ConcurrentProcessAppendersNeverTearRecords)
{
    const std::string dir = scratchDir("svc-lock");
    removeTree(dir);
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    const std::string path = dir + "/shared.index";
    constexpr int children = 4, linesEach = 64;

    std::vector<pid_t> pids;
    for (int c = 0; c < children; ++c) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: append records the way appendIndex does, but split
            // each line into several flushed writes so only the lock
            // keeps them contiguous.
            for (int i = 0; i < linesEach; ++i) {
                std::FILE *f = std::fopen(path.c_str(), "ab");
                if (!f)
                    ::_exit(2);
                try {
                    ScopedFileLock lock(::fileno(f));
                    std::fprintf(f, "entry child=%d", c);
                    std::fflush(f);
                    std::fprintf(f, " line=%d", i);
                    std::fflush(f);
                    std::fprintf(f, " tail=ok\n");
                    std::fflush(f);
                } catch (const SimError &) {
                    std::fclose(f);
                    ::_exit(3);
                }
                std::fclose(f);
            }
            ::_exit(0);
        }
        pids.push_back(pid);
    }
    for (const pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    // Every line must be a complete, well-formed record.
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    int seen[children] = {0};
    int total = 0;
    char line[128];
    while (std::fgets(line, sizeof(line), f)) {
        int c = -1, i = -1;
        ASSERT_EQ(std::sscanf(line, "entry child=%d line=%d tail=ok", &c,
                              &i),
                  2)
            << "torn record: '" << line << "'";
        ASSERT_GE(c, 0);
        ASSERT_LT(c, children);
        ++seen[c];
        ++total;
    }
    std::fclose(f);
    EXPECT_EQ(total, children * linesEach);
    for (int c = 0; c < children; ++c)
        EXPECT_EQ(seen[c], linesEach) << "child " << c;
    removeTree(dir);
}

// ---------------------------------------------------------------------
// The two service-layer fault classes
// ---------------------------------------------------------------------

TEST(ServiceFaults, ClassSpellingsAndContracts)
{
    FaultInjector inj(1);
    EXPECT_STREQ(toString(FaultClass::TruncatedFrame), "truncated-frame");
    EXPECT_STREQ(toString(FaultClass::CorruptBlob), "corrupt-blob");
    EXPECT_EQ(detectedBy(FaultClass::TruncatedFrame, LlcKind::Reuse),
              Invariant::FrameIntegrity);
    EXPECT_EQ(detectedBy(FaultClass::CorruptBlob, LlcKind::Reuse),
              Invariant::BlobIntegrity);
    FaultClass out;
    EXPECT_TRUE(faultClassFromName("truncated-frame", out));
    EXPECT_EQ(out, FaultClass::TruncatedFrame);
    EXPECT_TRUE(faultClassFromName("corrupt-blob", out));
    EXPECT_EQ(out, FaultClass::CorruptBlob);
}

TEST(ServiceLock, AcquisitionRetriesThroughSignalInterruptions)
{
    const std::string dir = scratchDir("svc-lock-eintr");
    removeTree(dir);
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    const std::string path = dir + "/locked.bin";
    // Two separate open file descriptions: flock held on one must block
    // (not no-op) acquisition through the other.
    const int holder = ::open(path.c_str(), O_CREAT | O_RDWR, 0666);
    const int waiter = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(holder, 0);
    ASSERT_GE(waiter, 0);
    ASSERT_EQ(::flock(holder, LOCK_EX), 0);

    // A handler installed WITHOUT SA_RESTART: each SIGUSR1 makes the
    // blocked flock(2) in ScopedFileLock return EINTR, which the
    // constructor must absorb by retrying instead of throwing.
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = [](int) {};
    sa.sa_flags = 0;
    struct sigaction old;
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

    std::atomic<bool> entered{false}, acquired{false};
    std::thread blocked([&] {
        entered.store(true);
        ScopedFileLock lock(waiter);
        acquired.store(true);
    });
    while (!entered.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Pepper the blocked thread with signals; it must neither throw nor
    // acquire while the holder still owns the lock.
    for (int i = 0; i < 20; ++i) {
        ::pthread_kill(blocked.native_handle(), SIGUSR1);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ASSERT_FALSE(acquired.load())
            << "lock acquired while still held elsewhere";
    }
    ASSERT_EQ(::flock(holder, LOCK_UN), 0);
    blocked.join();
    EXPECT_TRUE(acquired.load());

    ::sigaction(SIGUSR1, &old, nullptr);
    ::close(waiter);
    ::close(holder);
    removeTree(dir);
}

TEST(ServiceFrame, PartialWritesAreCompletedOverATinySendBuffer)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Shrink both buffers so a ~1 MiB frame cannot possibly fit: the
    // writeRaw loop must survive many short send()s, and readExact on
    // the other side must stitch the frame back from many short reads.
    const int tiny = 4096;
    ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &tiny,
                           sizeof(tiny)),
              0);
    ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &tiny,
                           sizeof(tiny)),
              0);

    std::vector<std::uint8_t> payload(1u << 20);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);

    std::thread writer([&] {
        svc::writeFrame(fds[0], MsgType::SimResult, payload, 10'000);
        ::close(fds[0]);
    });
    // Let the send buffer fill first so the writer really blocks.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Frame got;
    ASSERT_TRUE(svc::readFrame(fds[1], got, 10'000));
    writer.join();
    EXPECT_EQ(got.type, MsgType::SimResult);
    EXPECT_EQ(got.payload, payload); // bitwise, CRC already verified
    ::close(fds[1]);
}

TEST(ServiceFrame, ErrorPayloadCodecRoundTripsEveryKind)
{
    for (const SimError::Kind kind :
         {SimError::Kind::Config, SimError::Kind::Protocol,
          SimError::Kind::Integrity, SimError::Kind::Hang,
          SimError::Kind::Io, SimError::Kind::Crash}) {
        const auto payload =
            svc::encodeErrorPayload(kind, "message for the peer");
        SimError::Kind outKind = SimError::Kind::Io;
        std::string msg;
        ASSERT_TRUE(svc::decodeErrorPayload(payload, outKind, msg));
        EXPECT_EQ(outKind, kind);
        EXPECT_EQ(msg, "message for the peer");
    }
    // Malformed payloads decode to a safe fallback, never a throw.
    SimError::Kind k = SimError::Kind::Io;
    std::string msg;
    EXPECT_FALSE(svc::decodeErrorPayload({0x01, 0x02, 0x03}, k, msg));
}

TEST(ServiceFaults, ChaosSeedsRoundTripAndNeverCollideWithRealSeeds)
{
    for (const FaultClass cls :
         {FaultClass::WorkerCrash, FaultClass::WorkerOom,
          FaultClass::WorkerHang}) {
        const std::uint64_t seed = chaosSeed(cls, 0x1234);
        FaultClass out;
        ASSERT_TRUE(chaosFromSeed(seed, out)) << toString(cls);
        EXPECT_EQ(out, cls);
        EXPECT_EQ(detectedBy(cls, LlcKind::Reuse),
                  Invariant::CrashContainment);
    }
    FaultClass out;
    EXPECT_FALSE(chaosFromSeed(42, out));
    EXPECT_FALSE(chaosFromSeed(0xdeadbeef, out));
    // The magic alone is not enough: the class byte must be a worker
    // class, so non-chaos classes can never detonate.
    EXPECT_FALSE(chaosFromSeed(0xCA05ull << 48, out));
}

TEST(ServiceFaults, CorruptBlobFileRefusesMissingOrEmptyFiles)
{
    FaultInjector inj(2);
    EXPECT_FALSE(inj.corruptBlobFile("/nonexistent/nope.bin"));
    const std::string dir = scratchDir("svc-fault-empty");
    removeTree(dir);
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    const std::string empty = dir + "/empty.bin";
    {
        std::FILE *f = std::fopen(empty.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fclose(f);
    }
    EXPECT_FALSE(inj.corruptBlobFile(empty));
    removeTree(dir);
}

} // namespace
} // namespace rc
