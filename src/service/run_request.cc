#include "service/run_request.hh"

#include "common/log.hh"
#include "snapshot/serializer.hh"

namespace rc::svc
{

namespace
{

/**
 * The canonical request fields, shared verbatim by the canonical bytes
 * and the wire codec.  The config part is every field forEachField()
 * visits, sub-configs of inactive SLLC kinds and display names
 * included; ServiceRequest.EveryFieldKeysExactlyItsSide perturbs each
 * field in turn and checks that it moves the digest and survives the
 * wire round trip.
 */
void
putCanonical(Serializer &s, const RunRequest &req)
{
    s.beginSection("cfg");
    putConfigFields(s, req.config);
    s.endSection("cfg");
    s.beginSection("mix");
    s.putU64(req.mix.apps.size());
    for (const std::string &app : req.mix.apps)
        s.putString(app);
    s.endSection("mix");
    s.beginSection("opt");
    s.putU64(req.seed);
    s.putU32(req.scale);
    s.putU64(req.warmup);
    s.putU64(req.measure);
    s.endSection("opt");
}

} // namespace

std::vector<std::uint8_t>
canonicalBytes(const RunRequest &req)
{
    Serializer s;
    putCanonical(s, req);
    return s.payload();
}

std::uint64_t
requestDigest(const RunRequest &req)
{
    return fnv1a64(canonicalBytes(req));
}

void
encodeRequest(Serializer &s, const RunRequest &req)
{
    s.beginSection("runreq");
    putCanonical(s, req);
    s.beginSection("meta");
    s.putU64(req.deadlineMs);
    s.endSection("meta");
    s.endSection("runreq");
}

RunRequest
decodeRequest(Deserializer &d)
{
    RunRequest req;
    d.beginSection("runreq");
    d.beginSection("cfg");
    req.config = getConfigFields(d);
    d.endSection("cfg");
    if (req.config.numCores > maxCores)
        throwSimError(SimError::Kind::Protocol,
                      "request asks for %u cores (at most %u)",
                      req.config.numCores, maxCores);
    d.beginSection("mix");
    const std::uint64_t apps = d.getU64();
    if (apps > 1024)
        throwSimError(SimError::Kind::Protocol,
                      "request mix claims %llu applications",
                      static_cast<unsigned long long>(apps));
    req.mix.apps.resize(static_cast<std::size_t>(apps));
    for (std::string &app : req.mix.apps)
        app = d.getString();
    d.endSection("mix");
    d.beginSection("opt");
    req.seed = d.getU64();
    req.scale = d.getU32();
    req.warmup = d.getU64();
    req.measure = d.getU64();
    d.endSection("opt");
    d.beginSection("meta");
    req.deadlineMs = d.getU64();
    d.endSection("meta");
    d.endSection("runreq");
    if (req.scale == 0 || req.measure == 0)
        throwSimError(SimError::Kind::Protocol,
                      "request carries a zero scale or measure window");
    return req;
}

} // namespace rc::svc
