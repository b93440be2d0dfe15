/**
 * @file
 * Small bit-manipulation helpers used by cache geometry and cost models.
 */

#ifndef RC_COMMON_BITOPS_HH
#define RC_COMMON_BITOPS_HH

#include <bit>
#include <cstdint>

namespace rc
{

/** @return true iff @p v is a power of two (0 is not). */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2; @p v must be non-zero. */
constexpr std::uint32_t
floorLog2(std::uint64_t v)
{
    return 63u - static_cast<std::uint32_t>(std::countl_zero(v));
}

/** Ceiling of log2; @p v must be non-zero. */
constexpr std::uint32_t
ceilLog2(std::uint64_t v)
{
    return v <= 1 ? 0 : floorLog2(v - 1) + 1;
}

/**
 * Number of bits needed to encode @p n distinct values.
 * bitsFor(1) == 0, bitsFor(16) == 4, bitsFor(17) == 5.
 */
constexpr std::uint32_t
bitsFor(std::uint64_t n)
{
    return ceilLog2(n);
}

} // namespace rc

#endif // RC_COMMON_BITOPS_HH
