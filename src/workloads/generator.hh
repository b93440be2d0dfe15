/**
 * @file
 * Synthetic reference-stream generator: turns an AppProfile into the
 * deterministic MemRef stream a core consumes.
 */

#ifndef RC_WORKLOADS_GENERATOR_HH
#define RC_WORKLOADS_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/trace.hh"
#include "workloads/app_profile.hh"

namespace rc
{

/**
 * Immutable Zipf popularity table over @c lines ranks with exponent s:
 * the cumulative weights sum_{i<=r} 1/(i+1)^s and a guide that maps
 * equal-probability slices of [0, total) to the CDF range holding them.
 *
 * A table depends only on (lines, s), and a homogeneous mix would
 * otherwise build the same region-sized CDF once per core.  get() hands
 * every stream with an equal key (s compared by bit pattern) the same
 * table; the registry keeps weak references only, so a table lives
 * exactly as long as some stream holds it and expired entries are
 * pruned on every insert.
 */
class ZipfTable
{
  public:
    /** The live table for (@p lines, @p s), built on first use. */
    static std::shared_ptr<const ZipfTable> get(std::uint64_t lines,
                                                double s);

    /** Registry entries whose table is still alive (prunes the rest;
     *  tests use it to check the registry drains). */
    static std::size_t liveEntries();

    ZipfTable(std::uint64_t lines, double s);

    /** First rank whose cumulative weight is >= @p u: exactly
     *  std::lower_bound over the whole CDF, narrowed by the guide. */
    std::uint64_t rank(double u) const;

    double total() const { return cdf.back(); } //!< sum of all weights

  private:
    std::vector<double> cdf;            //!< cumulative Zipf weights
    std::vector<std::uint32_t> guide;   //!< CDF search accelerator
    double guideScale = 0.0;            //!< buckets per unit weight
};

/**
 * RefStream implementation over an AppProfile.
 *
 * Memory layout: each core owns a 64 GB window of the 40-bit physical
 * space ((core << 36)); every component gets a 1 GB slot inside it.
 * Shared components (parallel workloads) instead live in a common window
 * at (8 << 36) so all cores touch the same lines.  Working-set sizes are
 * divided by the capacity scale so scaled caches see proportionate
 * pressure.
 *
 * One instruction fetch is emitted per 16 retired instructions, walking
 * the profile's code region sequentially.
 */
class SyntheticStream final : public RefStream
{
  public:
    /**
     * @param app the profile to synthesize.
     * @param core owning core (address window, shared-stream offsets).
     * @param seed RNG seed (combine workload and core ids for variety).
     * @param scale capacity divisor matching SystemConfig::capacityScale.
     * @param num_cores cores sharing the parallel regions.
     */
    SyntheticStream(const AppProfile &app, CoreId core, std::uint64_t seed,
                    std::uint32_t scale, std::uint32_t num_cores = 8);

    MemRef next() override;

    const char *label() const override { return appName.c_str(); }

    void save(Serializer &s) const override;
    void restore(Deserializer &d) override;

    /** Number of mixture components (incl. code and hot; tests). */
    std::size_t componentCount() const { return comps.size(); }

  private:
    struct CompState
    {
        AccessPattern pattern = AccessPattern::Loop;
        Addr base = 0;
        std::uint64_t lines = 1;
        std::uint32_t burstLines = 4;
        std::uint64_t cursor = 0;
        std::uint32_t burstLeft = 0;
        std::uint64_t scatter = 1;        //!< rank->line multiplier (Zipf)
        std::uint64_t salt = 0;           //!< rank->line offset (Zipf)
        std::shared_ptr<const ZipfTable> zipf; //!< shared popularity
                                               //!< table (Zipf only)
        std::uint64_t universeLines = 1;  //!< Loop: relocation universe
        std::uint64_t window = 0;         //!< Loop: current window start
        Addr pcBase = 0;                  //!< synthetic PC of this
                                          //!< component's access site
                                          //!< (ctor-derived, never
                                          //!< serialized)
    };

    Addr genLine(CompState &comp);
    MemRef makeDataRef();
    void advancePhase();
    void reseedComponent(CompState &comp, std::uint64_t mix);

    std::string appName;
    std::uint32_t thinkLo;
    //! Stream draws are compared as raw 53-bit integers k (the k of
    //! uniform() == k * 2^-53) against thresholds that pick exactly what
    //! the equivalent double comparisons pick.
    std::uint64_t writeBelow = 0;     //!< store iff k < writeBelow
    std::uint64_t thinkUpBelow = 0;   //!< think + 1 iff k < thinkUpBelow

    Rng rng;
    std::vector<CompState> comps;     //!< profile components
    //! floor(cumulative weight * 2^53) per component: the component a
    //! draw k picks is the number of entries below k (hot past the end).
    std::vector<std::uint64_t> pickFloor;
    CompState hot;                    //!< L1-resident remainder component
    CompState code;                   //!< instruction stream

    std::uint64_t instrSinceFetch = 0;
    static constexpr std::uint64_t instrPerFetch = 32;

    // Phase machinery (see AppProfile::phaseRefs).
    std::uint64_t refsPerPhase = 0;   //!< 0 disables phases
    std::uint64_t refsInPhase = 0;
    std::uint64_t phaseIndex = 0;
    std::uint64_t phaseSeed = 0;
};

} // namespace rc

#endif // RC_WORKLOADS_GENERATOR_HH
