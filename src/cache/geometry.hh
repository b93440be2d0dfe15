/**
 * @file
 * Set/way geometry of a cache array: index and tag extraction.
 */

#ifndef RC_CACHE_GEOMETRY_HH
#define RC_CACHE_GEOMETRY_HH

#include <cstdint>

#include "common/bitops.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace rc
{

/**
 * Geometry of a set-associative array addressed by line address.
 *
 * The reuse cache indexes both its tag and data arrays with the least
 * significant line-address bits (paper Section 3.3), so one geometry type
 * serves every array in the repository.  A fully-associative array is a
 * geometry with a single set.
 */
class CacheGeometry
{
  public:
    CacheGeometry() = default;

    /**
     * @param num_lines total entries; must be a multiple of @p num_ways.
     * @param num_ways associativity (num_ways == num_lines for FA).
     */
    CacheGeometry(std::uint64_t num_lines, std::uint32_t num_ways)
        : lines(num_lines), ways(num_ways),
          sets(num_ways ? num_lines / num_ways : 0)
    {
        RC_ASSERT(num_ways > 0, "associativity must be positive");
        RC_ASSERT(num_lines % num_ways == 0,
                  "lines (%llu) must be a multiple of ways (%u)",
                  static_cast<unsigned long long>(num_lines), num_ways);
        RC_ASSERT(isPowerOf2(sets), "set count must be a power of two");
        setShift = floorLog2(sets);
        setMask = sets - 1;
    }

    /** Build from a capacity in bytes and an associativity. */
    static CacheGeometry
    fromBytes(std::uint64_t bytes, std::uint32_t num_ways)
    {
        RC_ASSERT(bytes % lineBytes == 0, "capacity not line-aligned");
        return CacheGeometry(bytes / lineBytes, num_ways);
    }

    /** Set index of a line address (the set count is a power of two,
     *  so the low line-number bits are one AND away). */
    std::uint64_t
    setIndex(Addr line_addr) const
    {
        return lineNumber(line_addr) & setMask;
    }

    /** Tag of a line address (line number with the set bits removed). */
    std::uint64_t
    tagOf(Addr line_addr) const
    {
        return lineNumber(line_addr) >> setShift;
    }

    /** Reconstruct the line-aligned address from (tag, set). */
    Addr
    lineAddr(std::uint64_t tag, std::uint64_t set) const
    {
        return ((tag << setShift) | set) << lineShift;
    }

    std::uint64_t numLines() const { return lines; }   //!< total entries
    std::uint32_t numWays() const { return ways; }     //!< associativity
    std::uint64_t numSets() const { return sets; }     //!< number of sets
    std::uint64_t sizeBytes() const { return lines * lineBytes; } //!< bytes
    bool fullyAssociative() const { return sets == 1; } //!< single set?

  private:
    std::uint64_t lines = 0;
    std::uint32_t ways = 1;
    std::uint64_t sets = 0;
    std::uint32_t setShift = 0;
    std::uint64_t setMask = 0;  //!< sets - 1
};

} // namespace rc

#endif // RC_CACHE_GEOMETRY_HH
