/**
 * @file
 * Fundamental scalar types and constants shared by every subsystem.
 */

#ifndef RC_COMMON_TYPES_HH
#define RC_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace rc
{

/** Physical byte address. The paper assumes a 40-bit physical space. */
using Addr = std::uint64_t;

/** Simulated processor cycle count. */
using Cycle = std::uint64_t;

/** Per-core identifier (0..numCores-1). */
using CoreId = std::uint32_t;

/**
 * Most cores a system may have: directory presence masks and the
 * recall/downgrade core masks are 32-bit, one bit per core.
 */
constexpr std::uint32_t maxCores = 32;

/** Sentinel for "no address". */
constexpr Addr invalidAddr = std::numeric_limits<Addr>::max();

/** Sentinel for "no cycle" / "never". */
constexpr Cycle neverCycle = std::numeric_limits<Cycle>::max();

/** Cache line size in bytes (64 B throughout the paper). */
constexpr std::uint32_t lineBytes = 64;

/** log2(lineBytes). */
constexpr std::uint32_t lineShift = 6;

/** Physical address width assumed by the cost model (paper Section 3.5). */
constexpr std::uint32_t physAddrBits = 40;

/** Convert a byte address to its line-aligned address. */
constexpr Addr
lineAlign(Addr a)
{
    return a & ~static_cast<Addr>(lineBytes - 1);
}

/** Convert a byte address to a line number. */
constexpr Addr
lineNumber(Addr a)
{
    return a >> lineShift;
}

/** Kinds of memory operation a core can issue. */
enum class MemOp : std::uint8_t {
    Read,
    Write,
};

} // namespace rc

#endif // RC_COMMON_TYPES_HH
