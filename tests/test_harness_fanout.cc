/**
 * @file
 * Harness-level fan-out tests: a grouped sweep (one front-end pass per
 * mix feeding every SLLC config) must aggregate bit-identically to
 * independent runMix calls, at any job count, with telemetry enabled,
 * and when a journaled sweep forces the independent fallback.  Also
 * covers the baseline memoization: repeated sweeps with identical
 * deterministic options reuse results instead of re-simulating.
 */

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <cstdlib>

#include "cache/replacement.hh"
#include "harness.hh"
#include "sim/feed_cache.hh"
#include "sim/system_config.hh"
#include "workloads/mixes.hh"

namespace rc
{
namespace
{

bench::RunOptions
smokeOptions(std::uint32_t jobs)
{
    bench::RunOptions opt;
    opt.mixCount = 2;
    opt.scale = 8;
    opt.warmup = 20'000;
    opt.measure = 100'000;
    opt.seed = 42;
    opt.jobs = jobs;
    return opt;
}

/** Every SLLC organization; all share the front-end prefix. */
std::vector<SystemConfig>
sllcMatrix(std::uint32_t scale)
{
    std::vector<SystemConfig> cfgs;
    cfgs.push_back(conventionalSystem(8.0, ReplKind::LRU, scale));
    cfgs.push_back(reuseSystem(4.0, 1.0, 16, scale));
    cfgs.push_back(ncidSystem(8.0, 1.0, scale));
    return cfgs;
}

void
expectIdentical(const bench::RunResult &a, const bench::RunResult &b,
                const char *what)
{
    EXPECT_EQ(a.aggregateIpc, b.aggregateIpc) << what;
    ASSERT_EQ(a.coreIpc.size(), b.coreIpc.size()) << what;
    for (std::size_t c = 0; c < a.coreIpc.size(); ++c)
        EXPECT_EQ(a.coreIpc[c], b.coreIpc[c]) << what << " core " << c;
    ASSERT_EQ(a.mpki.size(), b.mpki.size()) << what;
    for (std::size_t c = 0; c < a.mpki.size(); ++c) {
        EXPECT_EQ(a.mpki[c].l1, b.mpki[c].l1) << what << " core " << c;
        EXPECT_EQ(a.mpki[c].l2, b.mpki[c].l2) << what << " core " << c;
        EXPECT_EQ(a.mpki[c].llc, b.mpki[c].llc) << what << " core " << c;
    }
    EXPECT_EQ(a.fracNeverEnteredData, b.fracNeverEnteredData) << what;
    EXPECT_EQ(a.llcAccesses, b.llcAccesses) << what;
    EXPECT_EQ(a.llcMemFetches, b.llcMemFetches) << what;
    EXPECT_EQ(a.dramReads, b.dramReads) << what;
}

TEST(HarnessFanout, GroupedSweepMatchesIndependentRuns)
{
    const auto opt = smokeOptions(1);
    const auto mixes = makeMixes(opt.mixCount, 8, 7);
    const auto cfgs = sllcMatrix(opt.scale);
    bench::clearBaselineMemoForTest();

    const auto grouped = bench::runConfigsOverMixes(cfgs, mixes, opt);
    ASSERT_EQ(grouped.size(), cfgs.size());

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        ASSERT_EQ(grouped[i].size(), mixes.size());
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            const bench::RunResult ref =
                bench::runMix(cfgs[i], mixes[m], opt);
            char what[64];
            std::snprintf(what, sizeof(what), "config %zu mix %zu", i, m);
            expectIdentical(ref, grouped[i][m], what);
        }
    }
}

TEST(HarnessFanout, GroupedSweepBitIdenticalAcrossJobCounts)
{
    const auto serial = smokeOptions(1);
    const auto parallel = smokeOptions(4);
    const auto mixes = makeMixes(serial.mixCount, 8, 7);
    const auto cfgs = sllcMatrix(serial.scale);
    bench::clearBaselineMemoForTest();

    const auto a = bench::runConfigsOverMixes(cfgs, mixes, serial);
    const auto b = bench::runConfigsOverMixes(cfgs, mixes, parallel);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            char what[64];
            std::snprintf(what, sizeof(what), "config %zu mix %zu", i, m);
            expectIdentical(a[i][m], b[i][m], what);
        }
    }
}

/** Configs with different front-end prefixes must not share a feed —
 *  and the sweep must still produce correct independent results. */
TEST(HarnessFanout, MixedPrefixesSplitIntoGroups)
{
    const auto opt = smokeOptions(2);
    const auto mixes = makeMixes(1, 8, 7);
    std::vector<SystemConfig> cfgs = sllcMatrix(opt.scale);
    SystemConfig bigL2 = baselineSystem(opt.scale);
    bigL2.priv.l2Bytes *= 2;
    cfgs.push_back(bigL2);
    bench::clearBaselineMemoForTest();

    const auto grouped = bench::runConfigsOverMixes(cfgs, mixes, opt);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const bench::RunResult ref = bench::runMix(cfgs[i], mixes[0], opt);
        char what[32];
        std::snprintf(what, sizeof(what), "config %zu", i);
        expectIdentical(ref, grouped[i][0], what);
    }
}

TEST(HarnessFanout, FanoutWithTelemetryMatchesPlainRun)
{
    auto opt = smokeOptions(1);
    const auto mixes = makeMixes(1, 8, 7);
    const auto cfgs = sllcMatrix(opt.scale);
    bench::clearBaselineMemoForTest();

    const auto plain = bench::runConfigsOverMixes(cfgs, mixes, opt);

    opt.telemetryDir = ::testing::TempDir() + "rc-fanout-telemetry";
    opt.sampleInterval = 25'000;
    const auto instrumented = bench::runConfigsOverMixes(cfgs, mixes, opt);

    for (std::size_t i = 0; i < cfgs.size(); ++i)
        expectIdentical(plain[i][0], instrumented[i][0], "telemetry");
}

TEST(HarnessFanout, RunMixFanoutMatchesRunMix)
{
    const auto opt = smokeOptions(1);
    const auto mixes = makeMixes(1, 8, 7);
    const auto cfgs = sllcMatrix(opt.scale);

    const auto fanned = bench::runMixFanout(cfgs, mixes[0], opt);
    ASSERT_EQ(fanned.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const bench::RunResult ref = bench::runMix(cfgs[i], mixes[0], opt);
        char what[32];
        std::snprintf(what, sizeof(what), "config %zu", i);
        expectIdentical(ref, fanned[i], what);
    }
}

/**
 * Feed-cached sweeps through the harness wiring (opt.feedCacheDir):
 * the cold capturing sweep and the warm replaying sweep must both be
 * bit-identical to a feed-free sweep, and the second sweep must
 * actually hit the blob the first one stored.
 */
TEST(HarnessFanout, FeedCachedSweepMatchesPlain)
{
    const auto plainOpt = smokeOptions(1);
    const auto mixes = makeMixes(plainOpt.mixCount, 8, 7);
    const auto cfgs = sllcMatrix(plainOpt.scale);
    bench::clearBaselineMemoForTest();
    const auto plain = bench::runConfigsOverMixes(cfgs, mixes, plainOpt);

    auto opt = plainOpt;
    opt.feedCacheDir = ::testing::TempDir() + "rc-harness-feedcache";
    const std::string rm = "rm -rf '" + opt.feedCacheDir + "'";
    (void)std::system(rm.c_str());

    bench::clearBaselineMemoForTest();
    const auto cold = bench::runConfigsOverMixes(cfgs, mixes, opt);
    const auto fc = FeedCache::open(opt.feedCacheDir);
    EXPECT_EQ(fc->size(), mixes.size()) << "one blob per mix expected";
    const auto statsAfterCold = fc->stats();
    EXPECT_EQ(statsAfterCold.stores, mixes.size());

    bench::clearBaselineMemoForTest();
    const auto warm = bench::runConfigsOverMixes(cfgs, mixes, opt);
    EXPECT_EQ(fc->stats().hits, statsAfterCold.hits + mixes.size())
        << "warm sweep should replay every mix's blob";

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            char what[64];
            std::snprintf(what, sizeof(what), "config %zu mix %zu", i, m);
            expectIdentical(plain[i][m], cold[i][m], what);
            expectIdentical(plain[i][m], warm[i][m], what);
        }
    }
    (void)std::system(rm.c_str());
}

/**
 * Baseline memoization: a second sweep with identical deterministic
 * options must reuse the first sweep's results without re-simulating.
 * The proof is the perf record: forEachRun accounts every executed
 * simulation, so a full memo hit adds no sims.
 */
TEST(HarnessFanout, RepeatedBaselineSweepIsMemoized)
{
    const auto opt = smokeOptions(1);
    const auto mixes = makeMixes(opt.mixCount, 8, 7);
    const SystemConfig baseline = baselineSystem(opt.scale);
    bench::clearBaselineMemoForTest();

    const auto first = bench::runBaselineOverMixes(baseline, mixes, opt);
    const std::string recordAfterFirst = bench::perfRecordJson();
    const auto second = bench::runBaselineOverMixes(baseline, mixes, opt);
    const std::string recordAfterSecond = bench::perfRecordJson();

    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectIdentical(first[i], second[i], "memoized baseline");
    EXPECT_EQ(recordAfterFirst, recordAfterSecond)
        << "the second sweep re-simulated memoized runs";

    // A different seed must miss the memo and simulate again.
    auto reseeded = opt;
    reseeded.seed = opt.seed + 1;
    (void)bench::runBaselineOverMixes(baseline, mixes, reseeded);
    EXPECT_NE(bench::perfRecordJson(), recordAfterSecond)
        << "a different seed should not hit the memo";
    bench::clearBaselineMemoForTest();
}

/**
 * The memo must key every config field.  RC-4/1 and RC-4/1 + reuse
 * predictor (and RC-4/1 with another per-LLC seed) once shared a memo
 * key, so whichever ran second was served the first one's results.
 */
TEST(HarnessFanout, MemoKeepsPredictorVariantDistinct)
{
    const auto opt = smokeOptions(1);
    const auto mixes = makeMixes(opt.mixCount, 8, 7);
    const SystemConfig plain = reuseSystem(4.0, 1.0, 0, opt.scale);
    SystemConfig pred = plain;
    pred.reuse.usePredictor = true;
    SystemConfig reseeded = plain;
    reseeded.reuse.seed += 1;
    bench::clearBaselineMemoForTest();

    (void)bench::runConfigsOverMixes({plain}, mixes, opt);
    for (const SystemConfig &variant : {pred, reseeded}) {
        const std::string before = bench::perfRecordJson();
        const auto got = bench::runConfigsOverMixes({variant}, mixes, opt);
        EXPECT_NE(bench::perfRecordJson(), before)
            << "the variant was served from RC-4/1's memo entry";
        for (std::size_t m = 0; m < mixes.size(); ++m)
            expectIdentical(bench::runMix(variant, mixes[m], opt),
                            got.front()[m], "memo variant");
    }
    bench::clearBaselineMemoForTest();
}

} // namespace
} // namespace rc
