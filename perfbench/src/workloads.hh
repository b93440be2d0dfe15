/**
 * @file
 * The benchmark's three workloads.  Each has an untraced entry point
 * (end-to-end metrics, medians over repetitions of at least
 * RunArgs::seconds of measured work) and a traced one that runs a single
 * repetition with spans around every call into a module and reports the
 * per-layer metrics of the layers that workload exercises.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/system_config.hh"
#include "support.hh"
#include "workloads/mixes.hh"

namespace pb
{

/** Wall seconds of one untraced and one traced repetition. */
struct TraceWalls
{
    double untraced = 0.0;
    double traced = 0.0;
    double reconcileErr = 0.0;
};

/**
 * kernel-mix: serial plain Cmp runs of eight homogeneous 8-core mixes,
 * each on conv-8MB LRU and on RC-4/1.
 */
Outcome runKernelMix(const RunArgs &args);

/**
 * Traced kernel-mix: one untraced repetition, then the layer probe,
 * which drives the same cells in Cmp's per-reference call order,
 * records every module call and replays each module's calls alone,
 * timed; the probe's LLC stats digests must equal Cmp's.
 */
TraceWalls traceKernelMix(const RunArgs &args, Tracer &tracer,
                          Outcome &out);

/**
 * sweep-repeat: a cold sweep A (captures the feed) and a warm sweep B
 * over the same mixes through runConfigsOverMixes.
 */
Outcome runSweepRepeat(const RunArgs &args);

/** Traced sweep-repeat plus the fan-out / feed-cache probe. */
TraceWalls traceSweepRepeat(const RunArgs &args, Tracer &tracer,
                            Outcome &out);

/** daemon-rpc: two closed-loop RcClients against an in-process Daemon. */
Outcome runDaemonRpc(const RunArgs &args);

/** Traced daemon-rpc plus the frame-codec and result-cache probes. */
TraceWalls traceDaemonRpc(const RunArgs &args, Tracer &tracer,
                          Outcome &out);

/**
 * One kernel-mix cell probed with sampled spans.  Exposed for the
 * fidelity self-test: @return the LLC stats digest of the probed run.
 */
std::uint64_t probeDigest(const rc::SystemConfig &cfg, const rc::Mix &mix,
                          std::uint64_t seed, rc::Cycle warmup,
                          rc::Cycle measure);

/** LLC stats digest of a plain Cmp run of the same cell. */
std::uint64_t cmpDigest(const rc::SystemConfig &cfg, const rc::Mix &mix,
                        std::uint64_t seed, rc::Cycle warmup,
                        rc::Cycle measure);

/**
 * One independent plain Cmp run of (@p cfg with seed @p seed, @p mix):
 * the harness's RunResult, and the references it simulated.
 */
rc::RunResult plainRun(const rc::SystemConfig &cfg, const rc::Mix &mix,
                       std::uint64_t seed, std::uint32_t scale,
                       rc::Cycle warmup, rc::Cycle measure,
                       std::uint64_t *refs);

/** Golden (cell name, digest) pairs of each workload's cells. */
std::vector<std::pair<std::string, std::string>>
kernelGoldens(std::uint64_t seed);
std::vector<std::pair<std::string, std::string>>
sweepGoldens(std::uint64_t seed);

/** Run the benchmark's own tests; returns the process exit code. */
int selfTest(const std::vector<std::string> &benchmarkNames);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_HH
