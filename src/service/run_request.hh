/**
 * @file
 * The unit of work the sweep daemon serves: one (SystemConfig x Mix)
 * simulation with the deterministic harness options, plus its canonical
 * byte encoding and content digest.
 *
 * Canonicalization is the load-bearing piece: the persistent result
 * cache is keyed by a digest of the canonical encoding, so two requests
 * produce the same key if and only if they describe bit-identical
 * simulations.  The encoding therefore enumerates EVERY field of the
 * SystemConfig explicitly — including the sub-configs of inactive SLLC
 * kinds and the display names (a spurious cache miss costs a re-run; a
 * spurious hit would serve a wrong answer, which the store additionally
 * rules out by comparing the full canonical key bytes on every lookup).
 *
 * Non-deterministic request attributes (the client's deadline) ride in
 * the wire encoding but are excluded from the canonical bytes.
 */

#ifndef RC_SERVICE_RUN_REQUEST_HH
#define RC_SERVICE_RUN_REQUEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/blob_index.hh"
#include "sim/system_config.hh"
#include "workloads/mixes.hh"

namespace rc
{
class Serializer;
class Deserializer;
}

namespace rc::svc
{

/** One simulation request. */
struct RunRequest
{
    SystemConfig config;
    Mix mix;

    // The deterministic harness options (RunOptions subset that shapes
    // the numbers; jobs/telemetry/checkpointing do not).
    std::uint64_t seed = 42;
    std::uint32_t scale = 8;
    std::uint64_t warmup = 3'000'000;
    std::uint64_t measure = 12'000'000;

    /**
     * Per-request deadline in milliseconds (0 = none).  The daemon
     * aborts the run via the hang-watchdog wiring when it expires.
     * NOT part of the canonical encoding: a deadline changes when an
     * answer stops being useful, never what the answer is.
     */
    std::uint64_t deadlineMs = 0;
};

/** Canonical bytes of @p req (excluding deadline); see file comment. */
std::vector<std::uint8_t> canonicalBytes(const RunRequest &req);

/** FNV-1a 64-bit digest of canonicalBytes(req): the cache key. */
std::uint64_t requestDigest(const RunRequest &req);

/** 16-hex-digit spelling of a digest (blob file names, logs). */
using rc::digestHex;

/** Wire encoding: canonical fields + the deadline. */
void encodeRequest(Serializer &s, const RunRequest &req);
RunRequest decodeRequest(Deserializer &d);

} // namespace rc::svc

#endif // RC_SERVICE_RUN_REQUEST_HH
