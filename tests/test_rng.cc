/** @file Unit tests for common/rng.hh (determinism and distributions). */

#include <gtest/gtest.h>

#include "common/rng.hh"

namespace rc
{
namespace
{

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedRemapped)
{
    Rng z(0);
    EXPECT_NE(z.next(), 0u); // xorshift would be stuck at 0 otherwise
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng r(9);
    bool seen[8] = {};
    for (int i = 0; i < 1000; ++i)
        seen[r.below(8)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, BelowRoughlyUniform)
{
    Rng r(11);
    constexpr int buckets = 16;
    constexpr int draws = 160000;
    int count[buckets] = {};
    for (int i = 0; i < draws; ++i)
        ++count[r.below(buckets)];
    for (int c : count) {
        EXPECT_GT(c, draws / buckets * 0.9);
        EXPECT_LT(c, draws / buckets * 1.1);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng r(3);
    bool lo = false, hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        lo |= v == 5;
        hi |= v == 8;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(5);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

// The integer threshold picks exactly what the double comparison
// picks, including draws right at the boundary.
TEST(Rng, ChanceBelowMatchesChance)
{
    const double probs[] = {0.0, -0.5, 1e-300, 0x1.0p-53, 0.1, 0.25,
                            1.0 / 3.0, 0.5, 0.999999, 1.0, 2.0};
    Rng draws(99);
    for (double p : probs) {
        const std::uint64_t below = Rng::chanceBelow(p);
        const auto agree = [&](std::uint64_t k) {
            const bool viaDouble = static_cast<double>(k) * 0x1.0p-53 < p;
            EXPECT_EQ(k < below, viaDouble) << "p=" << p << " k=" << k;
        };
        for (int i = 0; i < 10000; ++i)
            agree(draws.next53());
        for (std::uint64_t k : {std::uint64_t{0}, below - 1, below,
                                below + 1, (std::uint64_t{1} << 53) - 1}) {
            if (k < (std::uint64_t{1} << 53))
                agree(k);
        }
    }
    // Same draws, same picks.
    Rng a(7), b(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.chance(0.3), b.next53() < Rng::chanceBelow(0.3));
}

TEST(Rng, GeometricMean)
{
    Rng r(19);
    double sum = 0.0;
    constexpr int draws = 20000;
    for (int i = 0; i < draws; ++i)
        sum += static_cast<double>(r.geometric(4.0));
    EXPECT_NEAR(sum / draws, 4.0, 0.3);
}

TEST(Rng, GeometricMinimumOne)
{
    Rng r(21);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(r.geometric(0.5), 1u);
}

TEST(SplitMix, DistinctStreams)
{
    SplitMix64 a(42);
    const auto x = a.next();
    const auto y = a.next();
    EXPECT_NE(x, y);
    SplitMix64 b(42);
    EXPECT_EQ(b.next(), x);
}

} // namespace
} // namespace rc
