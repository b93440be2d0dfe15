/** @file Unit tests for histograms. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/histogram.hh"

namespace rc
{
namespace
{

TEST(Histogram, RecordAndBuckets)
{
    Histogram h(4);
    h.record(0);
    h.record(1);
    h.record(1);
    h.record(3);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, Overflow)
{
    Histogram h(2);
    h.record(5);
    h.record(100);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.total(), 105u);
}

TEST(Histogram, MeanExactDespiteOverflow)
{
    Histogram h(2);
    h.record(10);
    h.record(20);
    EXPECT_DOUBLE_EQ(h.mean(), 15.0);
}

TEST(Histogram, Reset)
{
    Histogram h(4);
    h.record(1);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucket(1), 0u);
}

TEST(Histogram, Merge)
{
    Histogram a(4), b(4);
    a.record(1);
    b.record(1);
    b.record(7);
    a.merge(b);
    EXPECT_EQ(a.bucket(1), 2u);
    EXPECT_EQ(a.overflow(), 1u);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Histogram, MergeMismatchedCapacityPanics)
{
    Histogram a(4), b(8);
    EXPECT_DEATH(a.merge(b), "capacity mismatch");
}

TEST(Histogram, EmptyHistogramIsAllZero)
{
    Histogram h(4);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    for (std::size_t b = 0; b < 4; ++b)
        EXPECT_EQ(h.bucket(b), 0u);
}

TEST(Histogram, SingleSample)
{
    Histogram h(4);
    h.record(2);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Histogram, AllEqualSamplesLandInOneBucket)
{
    Histogram h(8);
    for (int i = 0; i < 100; ++i)
        h.record(5);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.bucket(5), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
    for (std::size_t b = 0; b < 8; ++b) {
        if (b != 5) {
            EXPECT_EQ(h.bucket(b), 0u) << "bucket " << b;
        }
    }
}

TEST(Log2Histogram, EmptyIsAllZero)
{
    Log2Histogram h(4);
    EXPECT_EQ(h.count(), 0u);
    for (std::size_t b = 0; b < 4; ++b)
        EXPECT_EQ(h.bucket(b), 0u);
}

TEST(Log2Histogram, Buckets)
{
    Log2Histogram h(10);
    h.record(0); // bucket 0
    h.record(1); // bucket 0
    h.record(2); // bucket 1
    h.record(3); // bucket 1
    h.record(4); // bucket 2
    h.record(1023); // bucket 9
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.bucket(9), 1u);
    EXPECT_EQ(h.count(), 6u);
}

TEST(Log2Histogram, ClampsToLastBucket)
{
    Log2Histogram h(4);
    h.record(1ull << 40);
    EXPECT_EQ(h.bucket(3), 1u);
}

TEST(Log2Histogram, Dump)
{
    Log2Histogram h(4);
    h.record(2);
    std::ostringstream os;
    h.dump(os, "reuse");
    EXPECT_NE(os.str().find("reuse"), std::string::npos);
    EXPECT_NE(os.str().find("2^1: 1"), std::string::npos);
}

} // namespace
} // namespace rc
