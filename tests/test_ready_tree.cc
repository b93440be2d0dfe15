/**
 * @file
 * ReadyTree (sim/ready_tree.hh) against a naive scan: the winner is the
 * first core carrying the strictly smallest ready time, and the
 * runner-up is the smallest (ready, core) key among the other cores.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "sim/ready_tree.hh"

namespace rc
{
namespace
{

struct ScanResult
{
    std::uint32_t winner;
    ReadyTree::Key runnerUp;
};

/** The naive first-strictly-smallest scan over @p ready. */
ScanResult
naiveScan(const std::vector<Cycle> &ready)
{
    const std::uint32_t n = static_cast<std::uint32_t>(ready.size());
    const std::uint32_t b = bitsFor(n);
    std::uint32_t win = 0;
    for (std::uint32_t i = 1; i < n; ++i) {
        if (ready[i] < ready[win])
            win = i;
    }
    ScanResult r{win, ReadyTree::none};
    for (std::uint32_t i = 0; i < n; ++i) {
        if (i == win)
            continue;
        const bool better = r.runnerUp == ReadyTree::none ||
                            ready[i] < (r.runnerUp >> b);
        if (better)
            r.runnerUp = ready[i] << b | i;
    }
    return r;
}

TEST(ReadyTree, MatchesNaiveScanUnderHeavyTies)
{
    for (std::uint32_t n : {1u, 2u, 3u, 5u, 8u, 17u, 32u}) {
        Rng rng(0x5eed + n);
        // A small value range makes most picks ties.
        for (std::uint64_t range : {2u, 4u, 1000u}) {
            std::vector<Cycle> ready(n);
            ReadyTree tree;
            tree.reset(n, Cycle{1} << 40);
            for (std::uint32_t i = 0; i < n; ++i) {
                ready[i] = rng.below(range);
                tree.set(i, ready[i]);
            }
            for (int step = 0; step < 2000; ++step) {
                const ScanResult want = naiveScan(ready);
                ASSERT_FALSE(tree.done());
                ASSERT_EQ(tree.winner(), want.winner)
                    << "n=" << n << " step " << step;
                ASSERT_EQ(tree.minReady(), ready[want.winner]);
                ASSERT_EQ(tree.runnerUp(tree.winner()), want.runnerUp)
                    << "n=" << n << " step " << step;
                // Interleave moves of the winner (the run loop's case)
                // with moves of arbitrary cores (express updates).
                const std::uint32_t c = step % 3 == 0
                    ? static_cast<std::uint32_t>(rng.below(n))
                    : want.winner;
                ready[c] += rng.below(range);
                tree.set(c, ready[c]);
            }
        }
    }
}

TEST(ReadyTree, SliceEndClampsAndBoundsBursts)
{
    ReadyTree tree;
    tree.reset(3, 100);
    tree.set(0, 40);
    tree.set(1, 100);
    // Far past the end: shifted unclamped, this ready time would wrap
    // to a tiny key and win.
    tree.set(2, (Cycle{1} << 62) + 5);
    EXPECT_FALSE(tree.done());
    EXPECT_EQ(tree.winner(), 0u);
    // Core 1 sits at the end, so core 0 may run right up to it but a
    // step landing at the end stops its burst.
    const ReadyTree::Key bound = tree.burstBound(0);
    EXPECT_LT(tree.keyOf(0, 99), bound);
    EXPECT_GE(tree.keyOf(0, 100), bound);
    EXPECT_GE(tree.keyOf(0, 5000), bound);
    tree.set(0, 5000);
    EXPECT_TRUE(tree.done());
}

TEST(ReadyTree, SingleCoreHasNoRunnerUp)
{
    ReadyTree tree;
    tree.reset(1, 10);
    tree.set(0, 3);
    EXPECT_EQ(tree.winner(), 0u);
    EXPECT_EQ(tree.runnerUp(0), ReadyTree::none);
    // Alone, a core bursts until the slice end.
    EXPECT_LT(tree.keyOf(0, 9), tree.burstBound(0));
    EXPECT_GE(tree.keyOf(0, 10), tree.burstBound(0));
}

} // namespace
} // namespace rc
