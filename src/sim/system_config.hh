/**
 * @file
 * Whole-system configuration: Table 4 of the paper, plus the SLLC
 * organization selector and the capacity-scaling knob used to keep
 * laptop-scale runs fast.
 */

#ifndef RC_SIM_SYSTEM_CONFIG_HH
#define RC_SIM_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

#include "cache/conventional_llc.hh"
#include "cache/prefetcher.hh"
#include "cache/private_cache.hh"
#include "mem/memctrl.hh"
#include "ncid/ncid_cache.hh"
#include "reuse/reuse_cache.hh"

namespace rc
{

class Serializer;
class Deserializer;

/** Which SLLC organization the system instantiates. */
enum class LlcKind : std::uint8_t {
    Conventional,
    Reuse,
    Ncid,
};

/** Crossbar / SLLC banking parameters (Table 4: 4 banks, 16 MSHRs). */
struct CrossbarConfig
{
    std::uint32_t numBanks = 4;
    Cycle linkLatency = 4;      //!< core cluster <-> bank, each way
    Cycle bankOccupancy = 2;    //!< bank port busy time per access
    std::uint32_t mshrPerBank = 16;
};

/**
 * Full system description.  All capacities are PAPER-scale; divide() is
 * applied by the presets to produce the simulated (scaled) sizes while
 * the labels keep paper-equivalent names.
 */
struct SystemConfig
{
    std::uint32_t numCores = 8;

    PrivateConfig priv;        //!< 32 KB L1 I/D, 256 KB L2 (paper scale)
    PrefetcherConfig prefetch; //!< per-core L2 stride prefetcher (off by
                               //!< default; the paper evaluates without
                               //!< prefetching)
    CrossbarConfig xbar;
    MemCtrlConfig memory;      //!< 1 DDR3 channel

    LlcKind llcKind = LlcKind::Conventional;
    ConvLlcConfig conv;        //!< used when llcKind == Conventional
    ReuseCacheConfig reuse;    //!< used when llcKind == Reuse
    NcidConfig ncid;           //!< used when llcKind == Ncid

    std::uint64_t seed = 1;

    /**
     * Capacity divisor applied by the presets to every cache size (and,
     * by convention, to workload working sets).  1 reproduces the paper's
     * exact sizes; the default experiments use 8.
     */
    std::uint32_t capacityScale = 8;

    /** Scale a paper-scale byte capacity. */
    std::uint64_t
    scaled(std::uint64_t paper_bytes) const
    {
        return paper_bytes / capacityScale;
    }
};

/**
 * The paper's baseline (Table 4): conventional 8 MB 16-way LRU SLLC,
 * scaled by @p scale.
 */
SystemConfig baselineSystem(std::uint32_t scale = 8);

/**
 * A reuse-cache system RC-<tag_mbeq>/<data_mb> (paper-scale MB values),
 * scaled by @p scale.
 * @param data_ways data-array associativity; 0 = fully associative.
 */
SystemConfig reuseSystem(double tag_mbeq, double data_mb,
                         std::uint32_t data_ways = 0,
                         std::uint32_t scale = 8);

/**
 * A conventional system with the given capacity and replacement policy
 * (for the DRRIP/NRR comparisons of Section 5.5).
 */
SystemConfig conventionalSystem(double mb, ReplKind repl,
                                std::uint32_t scale = 8);

/** An NCID system with <tag_mbeq> tags and <data_mb> data (Section 5.5). */
SystemConfig ncidSystem(double tag_mbeq, double data_mb,
                        std::uint32_t scale = 8);

/** Which half of the simulated system a SystemConfig field shapes. */
enum class FieldSide : std::uint8_t {
    //! Reference generation and private-hierarchy classification: the
    //! fields a fan-out pass shares and the feed cache keys on.
    FrontEnd,
    //! Everything past the private L2 (crossbar, DRAM, the SLLC).
    BackEnd,
};

namespace detail
{

/** The field list behind forEachField(), walking any number of configs
 *  in lockstep: v(side, c.field...) once per field. */
template <typename Visitor, typename... Config>
void
walkConfigFields(Visitor &v, Config &...c)
{
    constexpr FieldSide F = FieldSide::FrontEnd;
    constexpr FieldSide B = FieldSide::BackEnd;
    v(F, c.numCores...);
    v(F, c.priv.l1Bytes...);
    v(F, c.priv.l1Ways...);
    v(F, c.priv.l1Latency...);
    v(F, c.priv.l2Bytes...);
    v(F, c.priv.l2Ways...);
    v(F, c.priv.l2Latency...);
    v(F, c.prefetch.enable...);
    v(F, c.prefetch.degree...);
    v(F, c.prefetch.tableEntries...);
    v(F, c.prefetch.regionShift...);
    v(F, c.prefetch.minConfidence...);
    v(B, c.xbar.numBanks...);
    v(B, c.xbar.linkLatency...);
    v(B, c.xbar.bankOccupancy...);
    v(B, c.xbar.mshrPerBank...);
    v(B, c.memory.numChannels...);
    v(B, c.memory.dram.numBanks...);
    v(B, c.memory.dram.pageBytes...);
    v(B, c.memory.dram.rowMissLatency...);
    v(B, c.memory.dram.rowHitLatency...);
    v(B, c.memory.dram.rowConflictExtra...);
    v(B, c.memory.dram.busCyclesPerLine...);
    v(B, c.memory.dram.bankOccupancy...);
    v(B, c.llcKind...);
    v(B, c.conv.capacityBytes...);
    v(B, c.conv.ways...);
    v(B, c.conv.repl...);
    v(B, c.conv.numCores...);
    v(B, c.conv.tagLatency...);
    v(B, c.conv.dataLatency...);
    v(B, c.conv.interventionLatency...);
    v(B, c.conv.seed...);
    v(B, c.conv.name...);
    v(B, c.reuse.tagEquivBytes...);
    v(B, c.reuse.tagWays...);
    v(B, c.reuse.dataBytes...);
    v(B, c.reuse.dataWays...);
    v(B, c.reuse.tagRepl...);
    v(B, c.reuse.dataRepl...);
    v(B, c.reuse.numCores...);
    v(B, c.reuse.tagLatency...);
    v(B, c.reuse.dataLatency...);
    v(B, c.reuse.interventionLatency...);
    v(B, c.reuse.seed...);
    v(B, c.reuse.name...);
    v(B, c.reuse.usePredictor...);
    v(B, c.reuse.predictorEntries...);
    v(B, c.ncid.tagEquivBytes...);
    v(B, c.ncid.tagWays...);
    v(B, c.ncid.dataBytes...);
    v(B, c.ncid.numCores...);
    v(B, c.ncid.tagLatency...);
    v(B, c.ncid.dataLatency...);
    v(B, c.ncid.interventionLatency...);
    v(B, c.ncid.selectiveFillRate...);
    v(B, c.ncid.seed...);
    v(B, c.ncid.name...);
    v(F, c.seed...);
    v(F, c.capacityScale...);
}

} // namespace detail

/**
 * The one SystemConfig schema: call v(side, field) for every field of
 * @p cfg (const or mutable) in canonical order.  The service's
 * canonical request bytes and wire codec, the feed-cache key and the
 * fan-out grouping predicate are all derived from this walk, so a field
 * added to a config struct must be added here, tagged with the side it
 * shapes; ServiceRequest.EveryFieldKeysExactlyItsSide then checks that
 * it moves exactly the keys its tag says.  The walk fixes the key bytes
 * of every stored result and feed blob: a new or reordered field
 * re-keys both stores.
 */
template <typename Config, typename Visitor>
void
forEachField(Config &cfg, Visitor &&v)
{
    detail::walkConfigFields(v, cfg);
}

/** Lockstep walk of two configs: v(side, a.field, b.field). */
template <typename Visitor>
void
forEachField(const SystemConfig &a, const SystemConfig &b, Visitor &&v)
{
    detail::walkConfigFields(v, a, b);
}

/**
 * Write the fields of @p c in walk order, each at its type's fixed
 * width (enums as one byte): all of them, or with @p frontEndOnly just
 * the FrontEnd ones.
 */
void putConfigFields(Serializer &s, const SystemConfig &c,
                     bool frontEndOnly = false);

/**
 * Read back what putConfigFields(s, c) wrote.  An enum beyond its last
 * enumerator throws SimError(Protocol): the bytes come off the wire.
 */
SystemConfig getConfigFields(Deserializer &d);

} // namespace rc

#endif // RC_SIM_SYSTEM_CONFIG_HH
