/**
 * @file
 * google-benchmark micro-benchmarks of the core structures: protocol
 * transitions, replacement-policy victim selection, way-scans, private
 * L1/L2 classification, tag/data array operations, DRAM access, and
 * end-to-end simulator throughput.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cache/conventional_llc.hh"
#include "cache/policies.hh"
#include "cache/private_cache.hh"
#include "common/wayscan.hh"
#include "coherence/protocol.hh"
#include "reuse/reuse_cache.hh"
#include "sim/cmp.hh"
#include "workloads/generator.hh"
#include "workloads/mixes.hh"

namespace
{

using namespace rc;

void
BM_ProtocolTransition(benchmark::State &state)
{
    std::uint32_t i = 0;
    const LlcState states[] = {LlcState::I, LlcState::TO, LlcState::S,
                               LlcState::M};
    const ProtoEvent events[] = {ProtoEvent::GETS, ProtoEvent::GETX,
                                 ProtoEvent::UPG, ProtoEvent::PUTS,
                                 ProtoEvent::PUTX};
    for (auto _ : state) {
        ProtoInput in{states[i % 4], events[i % 5], (i & 8) != 0, true};
        benchmark::DoNotOptimize(protocolTransition(in));
        ++i;
    }
}
BENCHMARK(BM_ProtocolTransition);

template <ReplKind kind>
void
BM_VictimSelection(benchmark::State &state)
{
    auto policy = makeReplacement(kind, 1024, 16, 8, 1);
    Rng rng(7);
    for (std::uint64_t s = 0; s < 1024; ++s) {
        for (std::uint32_t w = 0; w < 16; ++w)
            policy->onFill(s, w, ReplAccess{});
    }
    for (auto _ : state) {
        const std::uint64_t set = rng.below(1024);
        const std::uint32_t v = policy->victim(set, VictimQuery{});
        policy->onFill(set, v, ReplAccess{});
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_VictimSelection<ReplKind::LRU>)->Name("BM_Victim_LRU");
BENCHMARK(BM_VictimSelection<ReplKind::NRU>)->Name("BM_Victim_NRU");
BENCHMARK(BM_VictimSelection<ReplKind::NRR>)->Name("BM_Victim_NRR");
BENCHMARK(BM_VictimSelection<ReplKind::DRRIP>)->Name("BM_Victim_DRRIP");

void
BM_ClockFullyAssociative(benchmark::State &state)
{
    // The paper's FA data array: one set, thousands of ways, Clock.
    const auto ways = static_cast<std::uint32_t>(state.range(0));
    ClockPolicy policy(1, ways);
    Rng rng(7);
    for (std::uint32_t w = 0; w < ways; ++w)
        policy.onFill(0, w, ReplAccess{});
    for (auto _ : state) {
        const std::uint32_t v = policy.victim(0, VictimQuery{});
        policy.onFill(0, v, ReplAccess{});
        if (rng.chance(0.5))
            policy.onHit(0, static_cast<std::uint32_t>(rng.below(ways)),
                         ReplAccess{});
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_ClockFullyAssociative)->Arg(2048)->Arg(16384);

void
BM_ScanWays(benchmark::State &state)
{
    // One tag-lane probe per iteration (common/wayscan.hh, the backend
    // this build compiled in) over 64 cache-resident sets; half the
    // probes hit a random way, half miss.
    const auto ways = static_cast<std::uint32_t>(state.range(0));
    constexpr std::uint32_t sets = 64;
    constexpr std::size_t probes = 1024;
    Rng rng(9);
    std::vector<std::uint64_t> lane(sets * ways);
    for (std::uint64_t &tag : lane)
        tag = rng.below(std::uint64_t{1} << 40);
    std::vector<const std::uint64_t *> set_of(probes);
    std::vector<std::uint64_t> key_of(probes);
    for (std::size_t i = 0; i < probes; ++i) {
        set_of[i] = lane.data() + rng.below(sets) * ways;
        key_of[i] = rng.below(2) ? set_of[i][rng.below(ways)]
                                 : std::uint64_t{1} << 41;
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(scanWays(set_of[i], ways, key_of[i]));
        i = (i + 1) & (probes - 1);
    }
    state.SetLabel(wayScanBackend());
}
BENCHMARK(BM_ScanWays)->Arg(4)->Arg(8)->Arg(16);

void
BM_PrivateClassify(benchmark::State &state)
{
    // One core's L1/L2 at the Table 4 sizes, probed the way a core
    // mostly sees it: 7 of 8 reads go to a 256-line L1-resident hot
    // set, the rest to an L2-resident 2048-line region (L1 miss, L2
    // hit, L1 fill).  After warm-up no probe leaves the hierarchy.
    PrivateHierarchy ph(PrivateConfig{}, 0, "bench");
    const auto touch = [&ph](Addr line) {
        if (ph.classify(line, MemOp::Read, false).needLlc) {
            Addr victim = 0;
            bool dirty = false;
            ph.fill(line, false, false, victim, dirty);
        }
    };
    constexpr std::uint64_t hot = 256;
    constexpr std::uint64_t warm = 2048;
    const Addr warm_base = Addr{1} << 30;
    for (std::uint64_t n = 0; n < warm; ++n)
        touch(warm_base + n * lineBytes);
    for (std::uint64_t n = 0; n < hot; ++n)
        touch(n * lineBytes);
    constexpr std::size_t probes = 4096;
    Rng rng(13);
    std::vector<Addr> lines(probes);
    for (Addr &line : lines)
        line = rng.below(8) ? rng.below(hot) * lineBytes
                            : warm_base + rng.below(warm) * lineBytes;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ph.classify(lines[i], MemOp::Read, false));
        i = (i + 1) & (probes - 1);
    }
}
BENCHMARK(BM_PrivateClassify);

class NullRecaller : public RecallHandler
{
  public:
    bool recall(Addr, std::uint32_t) override { return false; }
    bool downgrade(Addr, std::uint32_t) override { return false; }
};

void
BM_ConventionalLlcRequest(benchmark::State &state)
{
    MemCtrl mem(MemCtrlConfig{});
    ConvLlcConfig cfg;
    cfg.capacityBytes = 1ull << 20;
    ConventionalLlc llc(cfg, mem);
    NullRecaller rec;
    llc.setRecallHandler(&rec);
    Rng rng(3);
    Cycle now = 0;
    for (auto _ : state) {
        const Addr line = rng.below(1 << 16) * lineBytes;
        benchmark::DoNotOptimize(llc.request(
            LlcRequest{line, static_cast<CoreId>(rng.below(8)),
                       ProtoEvent::GETS, now += 3}));
    }
}
BENCHMARK(BM_ConventionalLlcRequest);

void
BM_ReuseCacheRequest(benchmark::State &state)
{
    MemCtrl mem(MemCtrlConfig{});
    ReuseCacheConfig cfg =
        ReuseCacheConfig::standard(1ull << 20, 128 * 1024, 0);
    ReuseCache llc(cfg, mem);
    NullRecaller rec;
    llc.setRecallHandler(&rec);
    Rng rng(3);
    Cycle now = 0;
    for (auto _ : state) {
        const Addr line = rng.below(1 << 16) * lineBytes;
        benchmark::DoNotOptimize(llc.request(
            LlcRequest{line, static_cast<CoreId>(rng.below(8)),
                       ProtoEvent::GETS, now += 3}));
    }
}
BENCHMARK(BM_ReuseCacheRequest);

void
BM_DramAccess(benchmark::State &state)
{
    DramChannel ch(DramConfig{}, "bench");
    Rng rng(5);
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ch.access(rng.below(1 << 24) * lineBytes, now += 7, false));
    }
}
BENCHMARK(BM_DramAccess);

void
BM_SyntheticStream(benchmark::State &state)
{
    const AppProfile *app = findProfile("mcf");
    SyntheticStream stream(*app, 0, 42, 8);
    for (auto _ : state)
        benchmark::DoNotOptimize(stream.next());
}
BENCHMARK(BM_SyntheticStream);

void
BM_EndToEndSimulation(benchmark::State &state)
{
    // Simulated cycles per wall-second for the full 8-core system.
    for (auto _ : state) {
        Cmp cmp(baselineSystem(8), buildMixStreams(exampleMix(), 42, 8));
        cmp.run(100'000);
        benchmark::DoNotOptimize(cmp.aggregateIpc());
    }
    state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

} // namespace

