/**
 * @file
 * Bit-identity tests for the single-pass fan-out front end: a
 * FanoutCmp driving {conventional, reuse, NCID} back ends off one
 * shared reference stream must leave every member in exactly the state
 * an independent Cmp run of the same config reaches — same stats, same
 * cycle count, same checkpoint bytes, same telemetry samples.
 *
 * The comparison is full-state: every component StatSet (SLLC, per-core
 * private hierarchies, DRAM channels, crossbar MSHRs) plus the
 * reference and cycle totals.  Conventional and NCID members recall
 * private lines, so these runs exercise the divergence-tracking
 * fallback path, not just pure replay.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/replacement.hh"
#include "sim/cmp.hh"
#include "sim/fanout.hh"
#include "sim/system_config.hh"
#include "snapshot/serializer.hh"
#include "workloads/mixes.hh"

namespace
{

using namespace rc;

constexpr Cycle kWarmup = 60'000;
constexpr Cycle kMeasure = 240'000;
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

/** The fan-out matrix: every SLLC organization behind one front end. */
std::vector<SystemConfig>
matrixConfigs()
{
    std::vector<SystemConfig> cfgs;
    cfgs.push_back(conventionalSystem(8.0, ReplKind::LRU, kScale));
    cfgs.push_back(conventionalSystem(8.0, ReplKind::DRRIP, kScale));
    {
        SystemConfig c = reuseSystem(4.0, 1.0, 16, kScale);
        c.reuse.tagRepl = ReplKind::SRRIP;
        cfgs.push_back(c);
    }
    cfgs.push_back(reuseSystem(4.0, 1.0, 0, kScale));
    cfgs.push_back(ncidSystem(8.0, 1.0, kScale));
    for (SystemConfig &c : cfgs)
        c.seed = kSeed;
    return cfgs;
}

/** Full-state fingerprint, mirroring tests/test_kernel_identity.cc. */
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

/** Independent reference run of @p cfg (the ground truth). */
std::string
independentFingerprint(const SystemConfig &cfg)
{
    Cmp sim(cfg, buildMixStreams(testMix(), kSeed, kScale));
    sim.run(kWarmup);
    sim.beginMeasurement();
    sim.run(kMeasure);
    return fingerprint(sim);
}

TEST(Fanout, MatchesIndependentRuns)
{
    const std::vector<SystemConfig> cfgs = matrixConfigs();

    FanoutCmp fan(cfgs, mixFactory());
    fan.run(kWarmup);
    fan.beginMeasurement();
    fan.run(kMeasure);

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_EQ(independentFingerprint(cfgs[i]),
                  fingerprint(fan.member(i)))
            << "fan-out member " << i
            << " diverged from its independent run";
    }
}

TEST(Fanout, SingleMemberMatchesIndependent)
{
    SystemConfig cfg = reuseSystem(4.0, 1.0, 16, kScale);
    cfg.seed = kSeed;

    FanoutCmp fan({cfg}, mixFactory());
    fan.run(kWarmup);
    fan.beginMeasurement();
    fan.run(kMeasure);

    EXPECT_EQ(independentFingerprint(cfg), fingerprint(fan.member(0)));
}

/**
 * Mid-run checkpoints of a fan-out member must serialize the same bytes
 * an independent run serializes at the same reference boundaries: the
 * feed reconstructs true stream state for the member's cursor, and the
 * sliced run loop commits horizons exactly like an unsliced one.
 */
TEST(Fanout, CheckpointsMatchIndependent)
{
    const std::vector<SystemConfig> cfgs = matrixConfigs();
    constexpr std::uint64_t kCkptEvery = 40'000;

    auto capture = [](std::vector<std::vector<std::uint8_t>> &dst) {
        return [&dst](const Cmp &c, Cycle) {
            Serializer s;
            c.save(s);
            dst.push_back(s.image());
        };
    };

    std::vector<std::vector<std::vector<std::uint8_t>>> indep(cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        Cmp sim(cfgs[i], buildMixStreams(testMix(), kSeed, kScale));
        sim.setSnapshotHook(kCkptEvery, capture(indep[i]));
        sim.run(kWarmup);
        sim.beginMeasurement();
        sim.run(kMeasure);
    }

    std::vector<std::vector<std::vector<std::uint8_t>>> fanned(cfgs.size());
    FanoutCmp fan(cfgs, mixFactory());
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        fan.member(i).setSnapshotHook(kCkptEvery, capture(fanned[i]));
    fan.run(kWarmup);
    fan.beginMeasurement();
    fan.run(kMeasure);

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        ASSERT_FALSE(indep[i].empty())
            << "checkpoint cadence never fired; raise kMeasure";
        ASSERT_EQ(indep[i].size(), fanned[i].size())
            << "member " << i << " checkpointed a different number of "
            << "times than its independent run";
        for (std::size_t k = 0; k < indep[i].size(); ++k) {
            EXPECT_EQ(indep[i][k], fanned[i][k])
                << "checkpoint " << k << " of member " << i
                << " is not byte-identical to the independent run's";
        }
    }
}

/**
 * Cycle-cadence telemetry sampling observes the same quiescent points
 * with the same stat values whether the member runs fanned out or
 * independently.
 */
TEST(Fanout, TelemetrySamplesMatchIndependent)
{
    const std::vector<SystemConfig> cfgs = matrixConfigs();
    constexpr Cycle kSampleEvery = 30'000;

    auto capture = [](std::vector<std::string> &dst) {
        return [&dst](const Cmp &c, Cycle at) {
            std::ostringstream os;
            os << "at=" << at << " refs=" << c.referencesProcessed()
               << " ";
            c.llc().stats().dumpJson(os);
            dst.push_back(os.str());
        };
    };

    std::vector<std::vector<std::string>> indep(cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        Cmp sim(cfgs[i], buildMixStreams(testMix(), kSeed, kScale));
        sim.setSampleHook(kSampleEvery, capture(indep[i]));
        sim.run(kWarmup);
        sim.beginMeasurement();
        sim.run(kMeasure);
    }

    std::vector<std::vector<std::string>> fanned(cfgs.size());
    FanoutCmp fan(cfgs, mixFactory());
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        fan.member(i).setSampleHook(kSampleEvery, capture(fanned[i]));
    fan.run(kWarmup);
    fan.beginMeasurement();
    fan.run(kMeasure);

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        ASSERT_FALSE(indep[i].empty());
        EXPECT_EQ(indep[i], fanned[i])
            << "telemetry samples of member " << i
            << " diverged from the independent run's";
    }
}

/** The grouping predicate the harness keys fan-out batches on. */
TEST(Fanout, SamePrivatePrefixPredicate)
{
    const SystemConfig a = conventionalSystem(8.0, ReplKind::LRU, kScale);
    SystemConfig b = reuseSystem(4.0, 1.0, 16, kScale);
    EXPECT_TRUE(FanoutCmp::samePrivatePrefix(a, b))
        << "SLLC organization must not affect the front-end prefix";

    SystemConfig c = a;
    c.seed = a.seed + 1;
    EXPECT_FALSE(FanoutCmp::samePrivatePrefix(a, c));

    SystemConfig d = a;
    d.priv.l2Bytes *= 2;
    EXPECT_FALSE(FanoutCmp::samePrivatePrefix(a, d));

    SystemConfig e = a;
    e.prefetch.enable = true;
    EXPECT_FALSE(FanoutCmp::samePrivatePrefix(a, e));

    SystemConfig f = a;
    f.capacityScale = a.capacityScale * 2;
    EXPECT_FALSE(FanoutCmp::samePrivatePrefix(a, f));
}

/** A 3-core system pads the scheduler's tree; both members must still
 *  match their independent runs bit for bit (the conventional member
 *  recalls, so this covers the express lane's demotions too). */
TEST(Fanout, ThreeCoreMembersMatchIndependent)
{
    std::vector<SystemConfig> cfgs;
    cfgs.push_back(conventionalSystem(2.0, ReplKind::LRU, kScale));
    cfgs.push_back(reuseSystem(4.0, 1.0, 16, kScale));
    for (SystemConfig &c : cfgs) {
        c.seed = kSeed;
        c.numCores = 3;
        c.conv.numCores = 3;
        c.reuse.numCores = 3;
    }
    Mix mix;
    mix.apps = {"mcf", "libquantum", "namd"};
    const auto streams = [mix] { return buildMixStreams(mix, kSeed, kScale); };

    FanoutCmp fan(cfgs, streams);
    fan.run(kWarmup);
    fan.beginMeasurement();
    fan.run(kMeasure);

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        Cmp sim(cfgs[i], streams());
        sim.run(kWarmup);
        sim.beginMeasurement();
        sim.run(kMeasure);
        EXPECT_EQ(fingerprint(sim), fingerprint(fan.member(i)))
            << "3-core fan-out member " << i
            << " diverged from its independent run";
    }
}

/** Records are trimmed as the lockstep quanta advance: the feed's live
 *  window must stay near the quantum, not grow with the run. */
TEST(Fanout, FeedWindowStaysBounded)
{
    const std::vector<SystemConfig> cfgs = matrixConfigs();
    FanoutCmp fan(cfgs, mixFactory());
    fan.run(kWarmup + kMeasure);

    const FanoutFeed &feed = fan.sharedFeed();
    for (CoreId c = 0; c < feed.numCores(); ++c) {
        EXPECT_GT(feed.generatedCount(c), 0u);
    }
}

} // namespace
