/** @file Unit tests for common/bitops.hh. */

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/types.hh"

namespace rc
{
namespace
{

TEST(Bitops, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(Bitops, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(1ull << 63), 63u);
    EXPECT_EQ(floorLog2((1ull << 20) - 1), 19u);
}

TEST(Bitops, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4), 2u);
    EXPECT_EQ(ceilLog2(5), 3u);
    EXPECT_EQ(ceilLog2((1ull << 20) + 1), 21u);
}

TEST(Bitops, BitsFor)
{
    // Table 2 of the paper: a 16-way data array needs 4 forward-pointer
    // bits, a 16 K-line fully-associative one needs 14.
    EXPECT_EQ(bitsFor(16), 4u);
    EXPECT_EQ(bitsFor(16 * 1024), 14u);
    EXPECT_EQ(bitsFor(1), 0u);
    EXPECT_EQ(bitsFor(17), 5u);
}

TEST(Bitops, LineHelpers)
{
    EXPECT_EQ(lineAlign(0x12345), 0x12340ull);
    EXPECT_EQ(lineAlign(0x12340), 0x12340ull);
    EXPECT_EQ(lineNumber(0x12345), 0x12345ull >> 6);
    EXPECT_EQ(lineBytes, 64u);
    EXPECT_EQ(1u << lineShift, lineBytes);
}

} // namespace
} // namespace rc
