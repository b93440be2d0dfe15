#include "sim/system_config.hh"

#include <cmath>
#include <type_traits>

#include "common/log.hh"
#include "snapshot/serializer.hh"

namespace rc
{

namespace
{

constexpr std::uint64_t MiB = 1ull << 20;

std::uint64_t
mbToBytes(double mb)
{
    return static_cast<std::uint64_t>(std::llround(mb * 1024.0 * 1024.0));
}

/** Common skeleton shared by all presets (Table 4, scaled). */
SystemConfig
skeleton(std::uint32_t scale)
{
    RC_ASSERT(scale >= 1, "capacity scale must be at least 1");
    SystemConfig sys;
    sys.capacityScale = scale;
    sys.priv.l1Bytes = (32 * 1024) / scale;
    sys.priv.l1Ways = 4;
    sys.priv.l1Latency = 1;
    sys.priv.l2Bytes = (256 * 1024) / scale;
    sys.priv.l2Ways = 8;
    sys.priv.l2Latency = 7;
    sys.memory.numChannels = 1;
    return sys;
}

// The last enumerator of each enum the walk visits (decode range
// checks); an enum field of a new type fails to compile until it has one.
constexpr LlcKind lastEnumerator(LlcKind) { return LlcKind::Ncid; }
constexpr ReplKind lastEnumerator(ReplKind) { return ReplKind::Mru; }

} // namespace

void
putConfigFields(Serializer &s, const SystemConfig &c, bool frontEndOnly)
{
    forEachField(c, [&](FieldSide side, const auto &f) {
        using T = std::decay_t<decltype(f)>;
        if (frontEndOnly && side != FieldSide::FrontEnd)
            return;
        if constexpr (std::is_enum_v<T>) {
            static_assert(sizeof(T) == 1, "enums travel as one byte");
            s.putU8(static_cast<std::uint8_t>(f));
        } else if constexpr (std::is_same_v<T, bool>) {
            s.putBool(f);
        } else if constexpr (std::is_same_v<T, std::uint32_t>) {
            s.putU32(f);
        } else if constexpr (std::is_same_v<T, std::uint64_t>) {
            s.putU64(f);
        } else if constexpr (std::is_same_v<T, double>) {
            s.putDouble(f);
        } else {
            static_assert(std::is_same_v<T, std::string>);
            s.putString(f);
        }
    });
}

SystemConfig
getConfigFields(Deserializer &d)
{
    SystemConfig c;
    forEachField(c, [&](FieldSide, auto &f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_enum_v<T>) {
            const std::uint8_t v = d.getU8();
            if (v > static_cast<std::uint8_t>(lastEnumerator(T{})))
                throwSimError(SimError::Kind::Protocol,
                              "config carries unknown %s %u",
                              std::is_same_v<T, LlcKind> ? "LLC kind"
                                                         : "replacement kind",
                              v);
            f = static_cast<T>(v);
        } else if constexpr (std::is_same_v<T, bool>) {
            f = d.getBool();
        } else if constexpr (std::is_same_v<T, std::uint32_t>) {
            f = d.getU32();
        } else if constexpr (std::is_same_v<T, std::uint64_t>) {
            f = d.getU64();
        } else if constexpr (std::is_same_v<T, double>) {
            f = d.getDouble();
        } else {
            static_assert(std::is_same_v<T, std::string>);
            f = d.getString();
        }
    });
    return c;
}

SystemConfig
baselineSystem(std::uint32_t scale)
{
    SystemConfig sys = skeleton(scale);
    sys.llcKind = LlcKind::Conventional;
    sys.conv.capacityBytes = (8 * MiB) / scale;
    sys.conv.ways = 16;
    sys.conv.repl = ReplKind::LRU;
    sys.conv.numCores = sys.numCores;
    sys.conv.name = "llc";
    return sys;
}

SystemConfig
conventionalSystem(double mb, ReplKind repl, std::uint32_t scale)
{
    SystemConfig sys = skeleton(scale);
    sys.llcKind = LlcKind::Conventional;
    sys.conv.capacityBytes = mbToBytes(mb) / scale;
    sys.conv.ways = 16;
    sys.conv.repl = repl;
    sys.conv.numCores = sys.numCores;
    sys.conv.name = "llc";
    return sys;
}

SystemConfig
reuseSystem(double tag_mbeq, double data_mb, std::uint32_t data_ways,
            std::uint32_t scale)
{
    SystemConfig sys = skeleton(scale);
    sys.llcKind = LlcKind::Reuse;
    sys.reuse = ReuseCacheConfig::standard(mbToBytes(tag_mbeq) / scale,
                                           mbToBytes(data_mb) / scale,
                                           data_ways);
    sys.reuse.numCores = sys.numCores;
    sys.reuse.name = "llc";
    return sys;
}

SystemConfig
ncidSystem(double tag_mbeq, double data_mb, std::uint32_t scale)
{
    SystemConfig sys = skeleton(scale);
    sys.llcKind = LlcKind::Ncid;
    sys.ncid.tagEquivBytes = mbToBytes(tag_mbeq) / scale;
    sys.ncid.dataBytes = mbToBytes(data_mb) / scale;
    sys.ncid.numCores = sys.numCores;
    sys.ncid.name = "llc";
    return sys;
}

} // namespace rc
