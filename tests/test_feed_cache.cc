/**
 * @file
 * Persistent feed-cache tests: a FanoutCmp replaying records out of a
 * warm RCFEED2 blob must leave every member — including every arena
 * policy — in exactly the state the cold capturing run reached (same
 * stats, same cycle count, same mid-run checkpoint bytes); the
 * canonical key must be sensitive to everything that shapes the front
 * end and insensitive to SLLC-only config changes; a corrupt blob of
 * every feed FaultClass, and a blob of the older RCFEED1 format, must
 * demote to a verified recompute and be unlinked; and two processes
 * racing one cold key through the flock lease must end with one blob
 * and identical results.  Capture itself must stay bounded (its live
 * ring no larger than a plain feed's over a full Fig. 4 window), leave
 * nothing behind when dropped, and survive a sibling process's
 * recovery pass mid-capture; recovery must also adopt a blob its index
 * lost.
 */

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "arena/arena_registry.hh"
#include "cache/replacement.hh"
#include "common/blob_index.hh"
#include "common/tmpfile.hh"
#include "sim/cmp.hh"
#include "sim/fanout.hh"
#include "sim/feed_cache.hh"
#include "sim/system_config.hh"
#include "snapshot/serializer.hh"
#include "verify/fault_injector.hh"
#include "workloads/mixes.hh"

namespace
{

using namespace rc;

constexpr Cycle kWarmup = 40'000;
constexpr Cycle kMeasure = 160'000;
constexpr std::uint32_t kScale = 8;
constexpr std::uint64_t kSeed = 42;

Mix
testMix()
{
    Mix mix;
    for (int c = 0; c < 8; ++c)
        mix.apps.push_back(c % 2 == 0 ? "mcf" : "libquantum");
    return mix;
}

StreamFactory
mixFactory()
{
    return [] { return buildMixStreams(testMix(), kSeed, kScale); };
}

/** {conventional LLC under every arena policy, reuse, NCID} behind
 *  one front end. */
std::vector<SystemConfig>
matrixConfigs()
{
    std::vector<SystemConfig> cfgs;
    for (const arena::PolicyInfo &p : arena::policyRegistry()) {
        cfgs.push_back(conventionalSystem(8.0, ReplKind::LRU, kScale));
        cfgs.back().conv.repl = p.kind;
    }
    cfgs.push_back(reuseSystem(4.0, 1.0, 16, kScale));
    cfgs.push_back(ncidSystem(8.0, 1.0, kScale));
    for (SystemConfig &c : cfgs)
        c.seed = kSeed;
    return cfgs;
}

/** A conventional and a reuse cache: the cheap pair for protocol tests. */
std::vector<SystemConfig>
pairConfigs()
{
    std::vector<SystemConfig> cfgs;
    cfgs.push_back(conventionalSystem(8.0, ReplKind::LRU, kScale));
    cfgs.push_back(reuseSystem(4.0, 1.0, 16, kScale));
    for (SystemConfig &c : cfgs)
        c.seed = kSeed;
    return cfgs;
}

/** Full-state fingerprint, mirroring tests/test_fanout.cc. */
std::string
fingerprint(const Cmp &sim)
{
    std::ostringstream os;
    sim.llc().stats().dumpJson(os);
    os << "\n";
    for (std::uint32_t i = 0; i < sim.numCores(); ++i) {
        sim.core(i).priv().stats().dumpJson(os);
        os << "\n";
    }
    for (const auto &chan : sim.memory().channels()) {
        chan->stats().dumpJson(os);
        os << "\n";
    }
    for (const auto &mshr : sim.crossbar().mshrs()) {
        mshr->stats().dumpJson(os);
        os << "\n";
    }
    os << "refs=" << sim.referencesProcessed() << " cycles=" << sim.now()
       << "\n";
    return os.str();
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
    const std::string cmd = "rm -rf '" + dir + "'";
    (void)std::system(cmd.c_str());
}

/** Names in @p dir (without "." and ".."). */
std::vector<std::string>
listDir(const std::string &dir)
{
    std::vector<std::string> names;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (struct dirent *ent = ::readdir(d)) {
            const std::string name = ent->d_name;
            if (name != "." && name != "..")
                names.push_back(name);
        }
        ::closedir(d);
    }
    return names;
}

/** Spill captures through named pid-unique tmps for one scope. */
struct NamedSpill
{
    NamedSpill() { FeedSpill::forceNamedForTest(true); }
    ~NamedSpill() { FeedSpill::forceNamedForTest(false); }
};

/** Drive @p fan through the standard warmup+measure window. */
void
runWindow(FanoutCmp &fan, Cycle warmup, Cycle measure)
{
    fan.run(warmup);
    fan.beginMeasurement();
    fan.run(measure);
}

/** All members' fingerprints, concatenated (order = config order). */
std::string
fleetFingerprint(FanoutCmp &fan, std::size_t n)
{
    std::string out;
    for (std::size_t i = 0; i < n; ++i)
        out += fingerprint(fan.member(i));
    return out;
}

/**
 * The executeFanout cold/warm protocol in miniature: look up, take the
 * key lease on a miss, re-look-up, then capture-and-store or replay.
 * Returns the fleet fingerprint either way (they must never differ).
 */
std::string
runViaProtocol(const std::string &dir,
               const std::vector<SystemConfig> &cfgs, Cycle warmup,
               Cycle measure, bool *was_warm = nullptr)
{
    FeedCache fc(dir);
    const FeedKey key =
        feedKeyOf(cfgs.front(), testMix(), kSeed, kScale, warmup, measure);
    std::shared_ptr<const FeedBlob> blob = fc.lookup(key);
    std::unique_ptr<FeedKeyLease> lease;
    if (!blob) {
        lease = fc.lockKey(key.digest);
        blob = fc.lookup(key);
    }
    if (was_warm)
        *was_warm = blob != nullptr;
    const bool capture = blob == nullptr;
    FanoutCmp fan(cfgs, mixFactory(), blob, capture);
    runWindow(fan, warmup, measure);
    if (capture)
        fc.store(key, fan.sharedFeed());
    return fleetFingerprint(fan, cfgs.size());
}

// ---------------------------------------------------------------------
// Warm-vs-cold bitwise identity
// ---------------------------------------------------------------------

TEST(FeedCacheTest, WarmReplayBitIdenticalToColdCapture)
{
    const std::string dir = scratchDir("rc-feed-identity");
    removeTree(dir);
    const std::vector<SystemConfig> cfgs = matrixConfigs();

    FeedCache fc(dir);
    const FeedKey key = feedKeyOf(cfgs.front(), testMix(), kSeed, kScale,
                                  kWarmup, kMeasure);
    EXPECT_EQ(fc.lookup(key), nullptr) << "fresh dir should miss";

    FanoutCmp cold(cfgs, mixFactory(), nullptr, /*capture=*/true);
    runWindow(cold, kWarmup, kMeasure);
    fc.store(key, cold.sharedFeed());
    EXPECT_EQ(fc.size(), 1u);

    const std::shared_ptr<const FeedBlob> blob = fc.lookup(key);
    ASSERT_NE(blob, nullptr) << "stored key must hit";
    EXPECT_EQ(blob->numCores(), cfgs.front().numCores);

    FanoutCmp warm(cfgs, mixFactory(), blob);
    EXPECT_TRUE(warm.sharedFeed().warm());
    EXPECT_FALSE(warm.sharedFeed().capturing());
    runWindow(warm, kWarmup, kMeasure);

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_EQ(fingerprint(cold.member(i)), fingerprint(warm.member(i)))
            << "member " << i << " diverged when replaying the blob";
    }

    const FeedCacheStats st = fc.stats();
    EXPECT_EQ(st.stores, 1u);
    EXPECT_EQ(st.hits, 1u);
    EXPECT_GE(st.misses, 1u);
    removeTree(dir);
}

// ---------------------------------------------------------------------
// Mid-run checkpoints off a warm feed
// ---------------------------------------------------------------------

TEST(FeedCacheTest, WarmCheckpointsByteIdenticalToCold)
{
    const std::string dir = scratchDir("rc-feed-ckpt");
    removeTree(dir);
    const std::vector<SystemConfig> cfgs = matrixConfigs();
    constexpr std::uint64_t kCkptEvery = 30'000;

    auto capture = [](std::vector<std::vector<std::uint8_t>> &dst) {
        return [&dst](const Cmp &c, Cycle) {
            Serializer s;
            c.save(s);
            dst.push_back(s.image());
        };
    };

    FeedCache fc(dir);
    const FeedKey key = feedKeyOf(cfgs.front(), testMix(), kSeed, kScale,
                                  kWarmup, kMeasure);

    std::vector<std::vector<std::vector<std::uint8_t>>> coldCk(cfgs.size());
    FanoutCmp cold(cfgs, mixFactory(), nullptr, /*capture=*/true);
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        cold.member(i).setSnapshotHook(kCkptEvery, capture(coldCk[i]));
    runWindow(cold, kWarmup, kMeasure);
    fc.store(key, cold.sharedFeed());

    const auto blob = fc.lookup(key);
    ASSERT_NE(blob, nullptr);
    std::vector<std::vector<std::vector<std::uint8_t>>> warmCk(cfgs.size());
    FanoutCmp warm(cfgs, mixFactory(), blob);
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        warm.member(i).setSnapshotHook(kCkptEvery, capture(warmCk[i]));
    runWindow(warm, kWarmup, kMeasure);

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        ASSERT_FALSE(coldCk[i].empty())
            << "checkpoint cadence never fired; raise kMeasure";
        ASSERT_EQ(coldCk[i].size(), warmCk[i].size()) << "member " << i;
        for (std::size_t k = 0; k < coldCk[i].size(); ++k) {
            EXPECT_EQ(coldCk[i][k], warmCk[i][k])
                << "checkpoint " << k << " of member " << i
                << " differs between cold capture and warm replay";
        }
    }
    removeTree(dir);
}

// ---------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------

TEST(FeedCacheTest, KeySensitivity)
{
    const SystemConfig conv =
        conventionalSystem(8.0, ReplKind::LRU, kScale);
    const Mix mix = testMix();
    const FeedKey base =
        feedKeyOf(conv, mix, kSeed, kScale, kWarmup, kMeasure);

    // SLLC-only differences share the front end, so they MUST share the
    // key — that sharing is the entire point of the cache.
    for (const SystemConfig &peer :
         {conventionalSystem(8.0, ReplKind::Ship, kScale),
          conventionalSystem(4.0, ReplKind::NRU, kScale),
          reuseSystem(4.0, 1.0, 16, kScale),
          ncidSystem(8.0, 1.0, kScale)}) {
        ASSERT_TRUE(FanoutCmp::samePrivatePrefix(conv, peer));
        const FeedKey k =
            feedKeyOf(peer, mix, kSeed, kScale, kWarmup, kMeasure);
        EXPECT_EQ(k.bytes, base.bytes);
        EXPECT_EQ(k.digest, base.digest);
    }

    // Anything that reshapes reference generation or private-hierarchy
    // classification must change the key.
    auto expectDiffers = [&](const FeedKey &k, const char *what) {
        EXPECT_NE(k.bytes, base.bytes) << what;
        EXPECT_NE(k.digest, base.digest) << what;
    };
    expectDiffers(
        feedKeyOf(conv, mix, kSeed + 1, kScale, kWarmup, kMeasure),
        "seed");
    expectDiffers(feedKeyOf(conv, mix, kSeed, 4, kWarmup, kMeasure),
                  "scale");
    expectDiffers(
        feedKeyOf(conv, mix, kSeed, kScale, kWarmup + 1, kMeasure),
        "warmup");
    expectDiffers(
        feedKeyOf(conv, mix, kSeed, kScale, kWarmup, kMeasure + 1),
        "measure");
    Mix other = mix;
    other.apps[0] = "milc";
    expectDiffers(feedKeyOf(conv, other, kSeed, kScale, kWarmup, kMeasure),
                  "mix");
    SystemConfig bigL2 = conv;
    bigL2.priv.l2Bytes *= 2;
    expectDiffers(
        feedKeyOf(bigL2, mix, kSeed, kScale, kWarmup, kMeasure),
        "private prefix (L2 bytes)");
}

// ---------------------------------------------------------------------
// Corruption demotion matrix
// ---------------------------------------------------------------------

TEST(FeedCacheTest, CorruptBlobDemotesToVerifiedRecompute)
{
    const std::vector<SystemConfig> cfgs = pairConfigs();
    constexpr Cycle kW = 20'000, kM = 60'000;

    for (const FaultClass cls : {FaultClass::FeedTruncate,
                                 FaultClass::FeedFlip,
                                 FaultClass::FeedVersion}) {
        SCOPED_TRACE(toString(cls));
        EXPECT_TRUE(isServiceFault(cls));
        EXPECT_EQ(detectedBy(cls, LlcKind::Conventional),
                  Invariant::FeedIntegrity);
        EXPECT_EQ(detectedBy(cls, LlcKind::Reuse),
                  Invariant::FeedIntegrity);

        const std::string dir =
            scratchDir(std::string("rc-feed-") + toString(cls));
        removeTree(dir);
        const FeedKey key =
            feedKeyOf(cfgs.front(), testMix(), kSeed, kScale, kW, kM);
        std::string pristine;
        {
            FeedCache fc(dir);
            FanoutCmp cold(cfgs, mixFactory(), nullptr, /*capture=*/true);
            runWindow(cold, kW, kM);
            fc.store(key, cold.sharedFeed());
            pristine = fleetFingerprint(cold, cfgs.size());
        }

        FaultInjector injector(kSeed);
        FeedCache fc(dir);
        const std::string path = fc.blobPath(key.digest);
        ASSERT_TRUE(injector.corruptFeedBlob(path, cls));

        // The damaged blob must demote to a miss and be unlinked —
        // never replayed.
        EXPECT_EQ(fc.lookup(key), nullptr);
        EXPECT_EQ(fc.stats().corruptDropped, 1u);
        EXPECT_NE(::access(path.c_str(), F_OK), 0)
            << "corrupt blob left on disk";

        // The demoted key recomputes bit-identically and re-stores.
        bool warm = true;
        const std::string recomputed =
            runViaProtocol(dir, cfgs, kW, kM, &warm);
        EXPECT_FALSE(warm) << "recompute should not have found a blob";
        EXPECT_EQ(recomputed, pristine);
        // A fresh instance (fc's in-memory view predates the re-store):
        // the recompute must have landed a replayable blob.
        FeedCache after(dir);
        EXPECT_NE(after.lookup(key), nullptr)
            << "recompute should have re-stored the blob";
        removeTree(dir);
    }
}

TEST(FeedCacheTest, InjectorRejectsNonFeedClassesAndMissingBlobs)
{
    FaultInjector injector(kSeed);
    EXPECT_FALSE(injector.corruptFeedBlob("/nonexistent/feed.bin",
                                          FaultClass::FeedFlip));
    EXPECT_FALSE(injector.corruptFeedBlob("/nonexistent/feed.bin",
                                          FaultClass::TagStateFlip));

    // The --inject spellings round-trip like every other class.
    for (const FaultClass cls : {FaultClass::FeedTruncate,
                                 FaultClass::FeedFlip,
                                 FaultClass::FeedVersion}) {
        FaultClass parsed;
        ASSERT_TRUE(faultClassFromName(toString(cls), parsed));
        EXPECT_EQ(parsed, cls);
    }
}

// ---------------------------------------------------------------------
// Two processes racing one cold key
// ---------------------------------------------------------------------

TEST(FeedCacheTest, ColdKeyRaceSerializesViaFlock)
{
    const std::string dir = scratchDir("rc-feed-race");
    removeTree(dir);
    const std::vector<SystemConfig> cfgs = pairConfigs();
    constexpr Cycle kW = 20'000, kM = 60'000;

    // mkdir up front so both racers open the same directory.
    { FeedCache fc(dir); }
    const std::string childFp = dir + "/child.fp";

    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        // Child: run the cold/warm protocol and report its fingerprint;
        // no gtest assertions on this side of the fork.
        const std::string fp = runViaProtocol(dir, cfgs, kW, kM);
        std::FILE *f = std::fopen(childFp.c_str(), "w");
        if (!f)
            ::_exit(2);
        std::fwrite(fp.data(), 1, fp.size(), f);
        std::fclose(f);
        ::_exit(0);
    }

    const std::string parentFp = runViaProtocol(dir, cfgs, kW, kM);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child racer failed";

    std::string childResult;
    {
        std::FILE *f = std::fopen(childFp.c_str(), "r");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            childResult.append(buf, n);
        std::fclose(f);
    }
    EXPECT_EQ(childResult, parentFp)
        << "racers disagreed on the simulated state";

    // However the race went, the dir holds exactly the one blob and a
    // fresh lookup replays it.
    FeedCache fc(dir);
    EXPECT_EQ(fc.size(), 1u);
    const FeedKey key =
        feedKeyOf(cfgs.front(), testMix(), kSeed, kScale, kW, kM);
    EXPECT_NE(fc.lookup(key), nullptr);

    bool warm = false;
    const std::string replayed = runViaProtocol(dir, cfgs, kW, kM, &warm);
    EXPECT_TRUE(warm);
    EXPECT_EQ(replayed, parentFp);
    removeTree(dir);
}

// ---------------------------------------------------------------------
// Streaming capture
// ---------------------------------------------------------------------

/** The spill hashes as it appends, in pieces of any word-granular
 *  size; the reader hashes the whole region at once.  Both must agree. */
TEST(FeedCacheTest, StreamingHashMatchesOneShot)
{
    std::vector<std::uint64_t> words(1000);
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = i * 0x9e3779b97f4a7c15ull + 7;
    const std::uint64_t whole =
        feedHash64(words.data(), words.size() * 8);
    for (const std::size_t piece : {1u, 3u, 4u, 5u, 17u, 64u, 999u}) {
        FeedHasher h;
        for (std::size_t i = 0; i < words.size(); i += piece)
            h.words(&words[i], std::min(piece, words.size() - i) * 8);
        EXPECT_EQ(h.done(), whole) << "piece " << piece;
    }
    EXPECT_NE(feedHash64(words.data(), 8 * 999), whole);
}

/**
 * Capture trims like a plain feed: after a full Fig. 4-length window
 * (the harness defaults, 3M + 12M cycles) the capturing feed's live
 * ring is no larger than an uncaptured feed's, while the blob it lands
 * still replays bit-identically.
 */
TEST(FeedCacheTest, CaptureRingNoLargerThanPlainOverFig4Window)
{
    const std::string dir = scratchDir("rc-feed-bounded");
    removeTree(dir);
    constexpr Cycle kW = 3'000'000, kM = 12'000'000;
    std::vector<SystemConfig> cfgs = {
        conventionalSystem(8.0, ReplKind::LRU, kScale)};
    cfgs.front().seed = kSeed;

    FanoutCmp plain(cfgs, mixFactory());
    runWindow(plain, kW, kM);
    FeedCache fc(dir);
    FanoutCmp cap(cfgs, mixFactory(), nullptr, /*capture=*/true, dir);
    runWindow(cap, kW, kM);

    const FanoutFeed &pf = plain.sharedFeed();
    const FanoutFeed &cf = cap.sharedFeed();
    for (CoreId c = 0; c < cfgs.front().numCores; ++c) {
        EXPECT_EQ(cf.generatedCount(c), pf.generatedCount(c)) << c;
        EXPECT_LE(cf.ringCapacity(c), pf.ringCapacity(c))
            << "core " << c << ": capture kept its window alive";
    }
    EXPECT_EQ(fingerprint(cap.member(0)), fingerprint(plain.member(0)));

    const FeedKey key =
        feedKeyOf(cfgs.front(), testMix(), kSeed, kScale, kW, kM);
    fc.store(key, cap.sharedFeed());
    const auto blob = fc.lookup(key);
    ASSERT_NE(blob, nullptr);
    for (CoreId c = 0; c < cfgs.front().numCores; ++c)
        EXPECT_EQ(blob->core(c).count, cf.generatedCount(c)) << c;
    FanoutCmp warm(cfgs, mixFactory(), blob);
    runWindow(warm, kW, kM);
    EXPECT_EQ(fingerprint(warm.member(0)), fingerprint(plain.member(0)));
    removeTree(dir);
}

/**
 * A blob of the previous RCFEED1 layout (valid header CRC, version 1)
 * is rejected by its version field, unlinked, and the key recomputes
 * and re-stores as RCFEED2.
 */
TEST(FeedCacheTest, Rcfeed1BlobRejectedByVersionAndRecomputed)
{
    const std::string dir = scratchDir("rc-feed-v1");
    removeTree(dir);
    const std::vector<SystemConfig> cfgs = pairConfigs();
    constexpr Cycle kW = 20'000, kM = 60'000;
    const FeedKey key =
        feedKeyOf(cfgs.front(), testMix(), kSeed, kScale, kW, kM);
    const std::string pristine = runViaProtocol(dir, cfgs, kW, kM);

    std::string path;
    {
        FeedCache fc(dir);
        path = fc.blobPath(key.digest);
    }
    {
        // Re-label the header as RCFEED1 and re-seal its CRC, so only
        // the version check can tell.
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::uint8_t hdr[72];
        ASSERT_EQ(std::fread(hdr, 1, sizeof(hdr), f), sizeof(hdr));
        std::memcpy(hdr, "RCFEED1", 8);
        hdr[8] = 1;
        hdr[9] = hdr[10] = hdr[11] = 0;
        const std::uint32_t crc = crc32(hdr, 68);
        for (int b = 0; b < 4; ++b)
            hdr[68 + b] = static_cast<std::uint8_t>(crc >> (8 * b));
        ASSERT_EQ(std::fseek(f, 0, SEEK_SET), 0);
        ASSERT_EQ(std::fwrite(hdr, 1, sizeof(hdr), f), sizeof(hdr));
        std::fclose(f);
    }

    bool threwVersion = false;
    try {
        (void)FeedBlob::open(path);
    } catch (const SimError &e) {
        threwVersion = std::strstr(e.what(), "format version 1") != nullptr;
    }
    EXPECT_TRUE(threwVersion) << "RCFEED1 must fail the version check";

    {
        FeedCache fc(dir);
        EXPECT_EQ(fc.lookup(key), nullptr);
        EXPECT_EQ(fc.stats().corruptDropped, 1u);
        EXPECT_NE(::access(path.c_str(), F_OK), 0) << "stale blob kept";
    }
    bool warm = true;
    EXPECT_EQ(runViaProtocol(dir, cfgs, kW, kM, &warm), pristine);
    EXPECT_FALSE(warm);
    FeedCache after(dir);
    EXPECT_NE(after.lookup(key), nullptr) << "recompute did not re-store";
    removeTree(dir);
}

/** A capture dropped without store() leaves no file behind, whether it
 *  spilled into an unnamed O_TMPFILE or a named pid-unique tmp. */
TEST(FeedCacheTest, DroppedCaptureLeavesNoFile)
{
    const std::vector<SystemConfig> cfgs = pairConfigs();
    for (const bool named : {false, true}) {
        SCOPED_TRACE(named ? "named spill" : "unnamed spill");
        const std::string dir = scratchDir("rc-feed-dropped");
        removeTree(dir);
        { FeedCache fc(dir); }
        const std::vector<std::string> before = listDir(dir);
        {
            FeedSpill::forceNamedForTest(named);
            FanoutCmp cap(cfgs, mixFactory(), nullptr, true, dir);
            FeedSpill::forceNamedForTest(false);
            runWindow(cap, 20'000, 60'000);
            if (named) {
                EXPECT_GT(listDir(dir).size(), before.size())
                    << "named spill should be visible mid-capture";
            }
        }
        EXPECT_EQ(listDir(dir), before);
        removeTree(dir);
    }
}

/** A writer killed mid-capture leaves nothing that recovery adopts or
 *  a lookup accepts, with either kind of spill. */
TEST(FeedCacheTest, KilledCaptureLeavesNothingAdoptable)
{
    const std::vector<SystemConfig> cfgs = pairConfigs();
    constexpr Cycle kW = 20'000, kM = 60'000;
    const FeedKey key =
        feedKeyOf(cfgs.front(), testMix(), kSeed, kScale, kW, kM);
    for (const bool named : {false, true}) {
        SCOPED_TRACE(named ? "named spill" : "unnamed spill");
        const std::string dir = scratchDir("rc-feed-killed");
        removeTree(dir);
        { FeedCache fc(dir); }
        const pid_t pid = ::fork();
        ASSERT_NE(pid, -1);
        if (pid == 0) {
            FeedSpill::forceNamedForTest(named);
            FanoutCmp cap(cfgs, mixFactory(), nullptr, true, dir);
            cap.run(kW);
            ::raise(SIGKILL);
            ::_exit(3);
        }
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

        FeedCache fc(dir);
        EXPECT_EQ(fc.size(), 0u);
        EXPECT_EQ(fc.stats().recovered, 0u);
        EXPECT_EQ(fc.lookup(key), nullptr);
        for (const std::string &name : listDir(dir))
            EXPECT_EQ(name.find(".tmp"), std::string::npos)
                << name << " survived recovery";
        removeTree(dir);
    }
}

/**
 * A blob whose rename landed but whose index append did not (a writer
 * killed in between), behind a torn index tail: recovery adopts it, and
 * the next lookup verifies and replays it.
 */
TEST(FeedCacheTest, RecoveryAdoptsUnindexedBlob)
{
    const std::string dir = scratchDir("rc-feed-recover");
    removeTree(dir);
    const std::vector<SystemConfig> cfgs = pairConfigs();
    constexpr Cycle kW = 20'000, kM = 60'000;
    const FeedKey key =
        feedKeyOf(cfgs.front(), testMix(), kSeed, kScale, kW, kM);
    std::string coldPrint;
    {
        FeedCache fc(dir);
        FanoutCmp cold(cfgs, mixFactory(), nullptr, /*capture=*/true, dir);
        runWindow(cold, kW, kM);
        fc.store(key, cold.sharedFeed());
        ASSERT_EQ(fc.stats().stores, 1u);
        coldPrint = fleetFingerprint(cold, cfgs.size());
    }
    {
        std::FILE *f = std::fopen((dir + "/feed.index").c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("# rc feed cache index v1\n", f);
        std::fprintf(f, "entry digest=%.7s",
                     digestHex(key.digest).c_str());
        std::fclose(f);
    }

    FeedCache fc(dir);
    EXPECT_EQ(fc.size(), 1u);
    EXPECT_EQ(fc.stats().recovered, 1u);
    const std::shared_ptr<const FeedBlob> blob = fc.lookup(key);
    ASSERT_NE(blob, nullptr);
    EXPECT_EQ(fc.stats().hits, 1u);
    EXPECT_EQ(fc.stats().corruptDropped, 0u);
    FanoutCmp warm(cfgs, mixFactory(), blob);
    runWindow(warm, kW, kM);
    EXPECT_EQ(fleetFingerprint(warm, cfgs.size()), coldPrint);

    // Recovery rewrote the index, so the next open adopts nothing.
    EXPECT_EQ(FeedCache(dir).stats().recovered, 0u);
    removeTree(dir);
}

/**
 * A second process opening the cache directory (running recovery)
 * mid-capture must not stop the capture from landing its blob: the
 * named spill carries a live pid and is left alone.  Recovery still
 * sweeps the tmps of dead writers.
 */
TEST(FeedCacheTest, SiblingRecoveryMidCaptureKeepsTheSpill)
{
    const std::string dir = scratchDir("rc-feed-sibling");
    removeTree(dir);
    const std::vector<SystemConfig> cfgs = pairConfigs();
    constexpr Cycle kW = 20'000, kM = 60'000;
    { FeedCache fc(dir); }

    // A tmp left by a writer that is gone: a reaped child's pid.
    const pid_t dead = ::fork();
    ASSERT_NE(dead, -1);
    if (dead == 0)
        ::_exit(0);
    ASSERT_EQ(::waitpid(dead, nullptr, 0), dead);
    const std::string deadTmp =
        dir + "/capture." + std::to_string(dead) + ".0.tmp";
    std::FILE *leftover = std::fopen(deadTmp.c_str(), "wb");
    ASSERT_NE(leftover, nullptr);
    std::fclose(leftover);
    EXPECT_FALSE(tmpWriterAlive("capture." + std::to_string(dead) +
                                ".0.tmp"));

    const NamedSpill named;
    FanoutCmp cap(cfgs, mixFactory(), nullptr, /*capture=*/true, dir);
    cap.run(kW);
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        try {
            FeedCache sibling(dir);
        } catch (...) {
            ::_exit(2);
        }
        ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    EXPECT_NE(::access(deadTmp.c_str(), F_OK), 0) << "dead tmp kept";
    const std::string ours = "capture." + std::to_string(::getpid()) + ".";
    const std::vector<std::string> left = listDir(dir);
    EXPECT_TRUE(std::any_of(left.begin(), left.end(),
                            [&](const std::string &n) {
                                return n.rfind(ours, 0) == 0;
                            }))
        << "the sibling swept this process's live spill";

    cap.beginMeasurement();
    cap.run(kM);
    FeedCache fc(dir);
    const FeedKey key =
        feedKeyOf(cfgs.front(), testMix(), kSeed, kScale, kW, kM);
    fc.store(key, cap.sharedFeed());
    EXPECT_EQ(fc.stats().stores, 1u) << "sibling recovery broke the spill";
    const auto blob = fc.lookup(key);
    ASSERT_NE(blob, nullptr);
    FanoutCmp warm(cfgs, mixFactory(), blob);
    runWindow(warm, kW, kM);
    EXPECT_EQ(fleetFingerprint(warm, cfgs.size()),
              fleetFingerprint(cap, cfgs.size()));
    removeTree(dir);
}

} // namespace
