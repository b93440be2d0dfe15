/**
 * @file
 * Equivalence tests for the vectorized way-scans: whatever backend
 * this binary compiled in (AVX2, SSE2, NEON or the branchless scalar
 * loop) must agree with a plain first-match reference scan on every
 * input shape the arrays can present — exhaustive placement of the
 * key, the invalid-way sentinel and duplicate keys at associativities
 * 4/8/16, plus the continuation and free-way scans.
 *
 * CI runs this once per backend: the default legs get SSE2 on x86-64,
 * the -DRC_NATIVE=ON leg gets AVX2 on AVX2 runners, and a -DRC_SIMD=OFF
 * leg forces the scalar fallback, so a lane-ordering bug in any variant
 * fails the matrix rather than hiding behind whichever backend a
 * developer built.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/wayscan.hh"

namespace
{

using namespace rc;

/** Unmistakable first-match reference. */
std::int32_t
refScan(const std::uint64_t *lane, std::uint32_t ways, std::uint64_t key)
{
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (lane[w] == key)
            return static_cast<std::int32_t>(w);
    }
    return -1;
}

const std::uint32_t kWidths[] = {4, 8, 16};

/** A tag value distinct from both the probe key and the sentinel. */
constexpr std::uint64_t kOther = 0x0123456789abull;
constexpr std::uint64_t kKey = 0x00deadbeef42ull;

TEST(WayScan, BackendNameIsKnown)
{
    const std::string name = wayScanBackend();
    EXPECT_TRUE(name == "avx2" || name == "sse2" || name == "neon" ||
                name == "scalar")
        << "unexpected way-scan backend '" << name << "'";
}

/** SSE2 is baseline x86-64, so a SIMD-enabled x86-64 build must never
 *  fall back to the scalar loop (the default build is the one timed). */
TEST(WayScan, X86SimdBuildIsVectorized)
{
#if defined(__x86_64__) && !defined(RC_SIMD_DISABLED)
    EXPECT_STRNE("scalar", wayScanBackend());
#else
    GTEST_SKIP() << "not an x86-64 build with RC_SIMD on";
#endif
}

/** Every single-occupancy placement: key at way k, rest filler. */
TEST(WayScan, SingleMatchEveryPosition)
{
    for (std::uint32_t ways : kWidths) {
        for (std::uint32_t k = 0; k < ways; ++k) {
            std::vector<std::uint64_t> lane(ways, kOther);
            lane[k] = kKey;
            EXPECT_EQ(static_cast<std::int32_t>(k),
                      scanWays(lane.data(), ways, kKey))
                << "ways=" << ways << " pos=" << k;
        }
    }
}

TEST(WayScan, MissReturnsMinusOne)
{
    for (std::uint32_t ways : kWidths) {
        std::vector<std::uint64_t> lane(ways, kOther);
        EXPECT_EQ(-1, scanWays(lane.data(), ways, kKey)) << "ways=" << ways;
        // The sentinel itself must be scannable too (free-way searches
        // in the LLC arrays probe for it directly).
        EXPECT_EQ(-1, scanWays(lane.data(), ways, kInvalidTagLane));
    }
}

/**
 * Exhaustive valid-mask sweep: every subset of ways holds the sentinel,
 * the rest filler, with the key then placed at each valid way in turn.
 * 2^16 masks x 16 positions at the widest shape keeps this exact, not
 * sampled.
 */
TEST(WayScan, ExhaustiveSentinelMasks)
{
    for (std::uint32_t ways : kWidths) {
        for (std::uint32_t mask = 0; mask < (1u << ways); ++mask) {
            std::vector<std::uint64_t> lane(ways);
            for (std::uint32_t w = 0; w < ways; ++w)
                lane[w] = (mask >> w) & 1 ? kInvalidTagLane : kOther;
            ASSERT_EQ(refScan(lane.data(), ways, kKey),
                      scanWays(lane.data(), ways, kKey))
                << "ways=" << ways << " mask=" << mask;
            ASSERT_EQ(refScan(lane.data(), ways, kInvalidTagLane),
                      scanWays(lane.data(), ways, kInvalidTagLane))
                << "ways=" << ways << " mask=" << mask << " (sentinel)";
            for (std::uint32_t k = 0; k < ways; ++k) {
                if ((mask >> k) & 1)
                    continue;
                const std::uint64_t saved = lane[k];
                lane[k] = kKey;
                ASSERT_EQ(static_cast<std::int32_t>(k),
                          scanWays(lane.data(), ways, kKey))
                    << "ways=" << ways << " mask=" << mask << " pos=" << k;
                lane[k] = saved;
            }
        }
    }
}

/**
 * Duplicate keys: fault injection can forge a second copy of a tag, and
 * the contract is FIRST match so the continuation scan can resume past
 * a rejected candidate.  Check every (first, second) pair.
 */
TEST(WayScan, DuplicatesReturnFirstMatch)
{
    for (std::uint32_t ways : kWidths) {
        for (std::uint32_t a = 0; a < ways; ++a) {
            for (std::uint32_t b = a + 1; b < ways; ++b) {
                std::vector<std::uint64_t> lane(ways, kOther);
                lane[a] = kKey;
                lane[b] = kKey;
                ASSERT_EQ(static_cast<std::int32_t>(a),
                          scanWays(lane.data(), ways, kKey))
                    << "ways=" << ways << " a=" << a << " b=" << b;
                ASSERT_EQ(static_cast<std::int32_t>(b),
                          scanWaysFrom(lane.data(), ways, kKey, a + 1))
                    << "continuation past " << a;
                ASSERT_EQ(-1, scanWaysFrom(lane.data(), ways, kKey, b + 1));
            }
        }
    }
}

/** Non-power-of-two widths fall back to the generic loop. */
TEST(WayScan, OddWidthsUseGenericLoop)
{
    for (std::uint32_t ways : {1u, 2u, 3u, 5u, 7u, 12u, 24u}) {
        for (std::uint32_t k = 0; k < ways; ++k) {
            std::vector<std::uint64_t> lane(ways, kOther);
            lane[k] = kKey;
            ASSERT_EQ(static_cast<std::int32_t>(k),
                      scanWays(lane.data(), ways, kKey))
                << "ways=" << ways << " pos=" << k;
        }
        std::vector<std::uint64_t> empty(ways, kOther);
        ASSERT_EQ(-1, scanWays(empty.data(), ways, kKey));
    }
}

/** scanFirstFree over occupancy bytes: every placement of the first
 *  zero, at sizes spanning below and above the vector strides, including
 *  lengths whose last 16 bytes are a tail past the 32-byte stride. */
TEST(WayScan, FirstFreeEveryPosition)
{
    for (std::uint32_t n : {1u, 8u, 15u, 16u, 17u, 31u, 32u, 33u, 47u, 48u,
                            49u, 64u, 80u, 100u, 112u}) {
        for (std::uint32_t k = 0; k < n; ++k) {
            std::vector<std::uint8_t> lane(n, 1);
            lane[k] = 0;
            ASSERT_EQ(static_cast<std::int32_t>(k),
                      scanFirstFree(lane.data(), n))
                << "n=" << n << " pos=" << k;
            // A second zero later must not win.
            if (k + 1 < n) {
                lane[n - 1] = 0;
                ASSERT_EQ(static_cast<std::int32_t>(k),
                          scanFirstFree(lane.data(), n));
            }
        }
        std::vector<std::uint8_t> full(n, 1);
        ASSERT_EQ(-1, scanFirstFree(full.data(), n)) << "n=" << n;
    }
}

} // namespace
