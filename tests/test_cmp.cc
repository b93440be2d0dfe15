/** @file Unit tests for the CMP system model. */

#include <iterator>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/cmp.hh"
#include "workloads/mixes.hh"

namespace rc
{
namespace
{

/** Fixed synthetic stream for deterministic micro-scenarios. */
class ScriptStream : public RefStream
{
  public:
    /** @param offset added to every address (per-core privatization). */
    explicit ScriptStream(std::vector<MemRef> script_, Addr offset = 0)
        : script(std::move(script_)), base(offset)
    {}

    MemRef
    next() override
    {
        MemRef r = script[pos % script.size()];
        r.addr += base;
        ++pos;
        return r;
    }

    const char *label() const override { return "script"; }

  private:
    std::vector<MemRef> script;
    Addr base;
    std::size_t pos = 0;
};

SystemConfig
tinySystem(LlcKind kind)
{
    SystemConfig sys = kind == LlcKind::Reuse ? reuseSystem(4, 1, 0, 8)
                                              : baselineSystem(8);
    return sys;
}

std::vector<std::unique_ptr<RefStream>>
scriptedCores(std::uint32_t n, const std::vector<MemRef> &script,
              bool privatize = false)
{
    std::vector<std::unique_ptr<RefStream>> out;
    for (std::uint32_t i = 0; i < n; ++i)
        out.push_back(std::make_unique<ScriptStream>(
            script, privatize ? Addr{i} << 32 : 0));
    return out;
}

TEST(Cmp, L1HitLoopRetiresAtFullRate)
{
    // One address hit in the L1 forever: IPC -> (think+1)/(think+1) = 1.
    std::vector<MemRef> script{{0x1000, MemOp::Read, 3, false}};
    Cmp cmp(tinySystem(LlcKind::Conventional), scriptedCores(8, script));
    cmp.run(10'000);
    cmp.beginMeasurement();
    cmp.run(100'000);
    // First access misses; everything after hits with 1-cycle latency:
    // 4 instructions per 4 cycles.
    EXPECT_NEAR(cmp.ipc(0), 1.0, 0.01);
    EXPECT_EQ(cmp.measuredMpki(0).llc, 0.0);
}

TEST(Cmp, UniqueLinesMissEverywhere)
{
    // Striding far apart forever: every access is an LLC miss.
    std::vector<MemRef> script;
    for (int i = 0; i < 4096; ++i)
        script.push_back({0x100000ull + 0x10000ull * i + 0x40ull *
                          (i * 7 % 64), MemOp::Read, 0, false});
    Cmp cmp(tinySystem(LlcKind::Conventional),
            scriptedCores(8, script, /*privatize=*/true));
    cmp.beginMeasurement();
    cmp.run(50'000);
    const MpkiTriple m = cmp.measuredMpki(0);
    EXPECT_NEAR(m.l1, 1000.0, 50.0); // every instruction misses
    EXPECT_NEAR(m.llc, m.l1, 50.0);
    EXPECT_LT(cmp.ipc(0), 0.05);
}

TEST(Cmp, SharedLineCoherence)
{
    // All 8 cores hammer one shared line with reads and writes; the
    // directory, upgrades and interventions must keep counters sane and
    // nothing may assert.
    std::vector<MemRef> script{
        {0x7000, MemOp::Read, 1, false},
        {0x7000, MemOp::Write, 1, false},
        {0x7000, MemOp::Read, 1, false},
    };
    Cmp cmp(tinySystem(LlcKind::Conventional), scriptedCores(8, script));
    cmp.run(200'000);
    const StatSet &s = cmp.llc().stats();
    EXPECT_GT(s.lookup("invalidationsSent"), 0u);
    EXPECT_GT(s.lookup("upgrades") + s.lookup("interventions"), 0u);
}

TEST(Cmp, SharedLineCoherenceOnReuseCache)
{
    std::vector<MemRef> script{
        {0x7000, MemOp::Read, 1, false},
        {0x7000, MemOp::Write, 1, false},
    };
    Cmp cmp(tinySystem(LlcKind::Reuse), scriptedCores(8, script));
    cmp.run(200'000);
    const StatSet &s = cmp.llc().stats();
    EXPECT_GT(s.lookup("invalidationsSent"), 0u);
}

TEST(Cmp, MeasurementWindowDeltas)
{
    std::vector<MemRef> script{{0x1000, MemOp::Read, 3, false}};
    Cmp cmp(tinySystem(LlcKind::Conventional), scriptedCores(8, script));
    cmp.run(10'000);
    const auto before = cmp.core(0).instructions();
    cmp.beginMeasurement();
    EXPECT_EQ(cmp.measuredInstructions(0), 0u);
    cmp.run(10'000);
    EXPECT_EQ(cmp.measuredInstructions(0),
              cmp.core(0).instructions() - before);
    EXPECT_EQ(cmp.measuredCycles(), 10'000u);
}

TEST(Cmp, DeterministicAcrossRuns)
{
    const Mix mix = exampleMix();
    auto run = [&mix]() {
        Cmp cmp(baselineSystem(8), buildMixStreams(mix, 42, 8));
        cmp.run(200'000);
        cmp.beginMeasurement();
        cmp.run(400'000);
        return cmp.aggregateIpc();
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Cmp, StreamCountMustMatchCores)
{
    std::vector<MemRef> script{{0x1000, MemOp::Read, 3, false}};
    EXPECT_DEATH(Cmp(tinySystem(LlcKind::Conventional),
                     scriptedCores(3, script)),
                 "one stream per core");
}

TEST(Cmp, WritebacksReachMemory)
{
    // Write a footprint larger than the (scaled, 1 MB = 16 Ki lines)
    // LLC so dirty lines flow all the way out to DRAM.
    std::vector<MemRef> script;
    for (int i = 0; i < 32768; ++i)
        script.push_back({0x4000000ull + 0x40ull * i, MemOp::Write, 0,
                          false});
    Cmp cmp(tinySystem(LlcKind::Conventional),
            scriptedCores(8, script, /*privatize=*/true));
    cmp.run(2'000'000);
    EXPECT_GT(cmp.memory().totalWrites(), 0u);
}

TEST(Cmp, MshrsObserveMisses)
{
    std::vector<MemRef> script;
    for (int i = 0; i < 4096; ++i)
        script.push_back({0x300000ull + 0x10000ull * i, MemOp::Read, 0,
                          false});
    Cmp cmp(tinySystem(LlcKind::Conventional), scriptedCores(8, script));
    cmp.run(100'000);
    Counter allocs = 0;
    for (const auto &m : cmp.crossbar().mshrs())
        allocs += m->stats().lookup("allocations");
    EXPECT_GT(allocs, 0u);
}

TEST(Cmp, AggregateIpcSumsCores)
{
    std::vector<MemRef> script{{0x1000, MemOp::Read, 3, false}};
    Cmp cmp(tinySystem(LlcKind::Conventional), scriptedCores(8, script));
    cmp.run(10'000);
    cmp.beginMeasurement();
    cmp.run(50'000);
    double sum = 0.0;
    for (CoreId c = 0; c < cmp.numCores(); ++c)
        sum += cmp.ipc(c);
    EXPECT_DOUBLE_EQ(cmp.aggregateIpc(), sum);
}

/** @p cfg resized to @p n cores (the presets are all 8-core). */
SystemConfig
withCores(SystemConfig cfg, std::uint32_t n)
{
    cfg.numCores = n;
    cfg.conv.numCores = n;
    cfg.reuse.numCores = n;
    cfg.ncid.numCores = n;
    return cfg;
}

Mix
mixOf(std::uint32_t n)
{
    static const char *const apps[] = {"mcf", "namd", "libquantum",
                                       "hmmer", "lbm"};
    Mix mix;
    for (std::uint32_t i = 0; i < n; ++i)
        mix.apps.push_back(apps[i % std::size(apps)]);
    return mix;
}

/** LLC stats JSON plus every core's IPC, for exact comparison. */
std::string
outcome(const Cmp &cmp)
{
    std::ostringstream os;
    cmp.llc().stats().dumpJson(os);
    os.precision(17);
    for (CoreId c = 0; c < cmp.numCores(); ++c)
        os << " ipc" << c << "=" << cmp.ipc(c);
    os << " refs=" << cmp.referencesProcessed();
    return os.str();
}

// Core counts that are not a power of two pad the scheduler's tree; the
// hook-free burst loop and the hooked per-reference loop must still pick
// the same core at every step.
TEST(Cmp, OddCoreCountsFastPathMatchesHookedPath)
{
    for (std::uint32_t n : {3u, 5u}) {
        for (const SystemConfig &base :
             {baselineSystem(8), reuseSystem(4, 1, 0, 8)}) {
            const SystemConfig cfg = withCores(base, n);
            const auto run = [&](bool hooked) {
                Cmp cmp(cfg, buildMixStreams(mixOf(n), 42, 8));
                // A no-op sample hook forces the per-reference loop.
                if (hooked)
                    cmp.setSampleHook(5'000, [](const Cmp &, Cycle) {});
                cmp.run(100'000);
                cmp.beginMeasurement();
                cmp.run(300'000);
                return outcome(cmp);
            };
            EXPECT_EQ(run(false), run(true)) << n << " cores";
        }
    }
}

TEST(Cmp, RejectsMoreCoresThanTheMasksHold)
{
    std::vector<MemRef> script{{0x1000, MemOp::Read, 3, false}};
    const SystemConfig cfg =
        withCores(tinySystem(LlcKind::Conventional), maxCores + 1);
    try {
        Cmp cmp(cfg, scriptedCores(maxCores + 1, script));
        FAIL() << "a 33-core system was accepted";
    } catch (const SimError &err) {
        EXPECT_EQ(err.kind(), SimError::Kind::Config) << err.what();
    }
}

} // namespace
} // namespace rc
