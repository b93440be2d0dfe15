/**
 * @file
 * The CMP's core scheduler: a tournament (min) tree over packed
 * (ready, core) keys.
 *
 * Cmp steps the core with the strictly smallest ready time next, the
 * lowest core index winning ties.  Packing each core's ready time and
 * index into one key, `ready << b | core` with b = bitsFor(numCores),
 * turns that rule into a plain unsigned minimum: the smallest key is
 * the winner, and since no two cores share a key there are no ties
 * left to break.  The tree keeps the minimum of every pair of subtrees,
 * so
 *
 *  - the root is the winner,
 *  - the smallest key among the winner's siblings on its path to the
 *    root is the runner-up (the minimum over every other core), which
 *    bounds how long the winner may keep stepping before another core
 *    would win, and
 *  - moving one core costs a leaf write plus ceil(log2 n) min-selects.
 *
 * Every step is a compare feeding a conditional move, so the loop
 * carries no data-dependent branch for the predictor to miss.
 *
 * The leaf count is padded to a power of two with all-ones keys, which
 * never win.  Keys are only meaningful within one slice of the run
 * loop: reset() takes the slice end, and a ready time at or past it
 * ("not in this slice") is stored as the end itself, so every key fits
 * in 64 bits whatever the core's real ready time.
 */

#ifndef RC_SIM_READY_TREE_HH
#define RC_SIM_READY_TREE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "common/bitops.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace rc
{

/** Tournament tree over per-core (ready, core) keys; see file comment. */
class ReadyTree
{
  public:
    using Key = std::uint64_t;

    /** The padding key: larger than any real core's key. */
    static constexpr Key none = ~Key{0};

    /**
     * Start a slice ending at @p end for @p n cores (1..maxCores).
     * Every leaf holds `none` until set().
     */
    void
    reset(std::uint32_t n, Cycle end)
    {
        RC_ASSERT(n >= 1 && n <= maxCores,
                  "the scheduler handles 1..%u cores, not %u", maxCores, n);
        bits = bitsFor(n);
        RC_ASSERT(end <= (~Cycle{0} >> bits),
                  "slice end %llu does not fit a %u-core scheduling key",
                  static_cast<unsigned long long>(end), n);
        leaves = static_cast<std::uint32_t>(std::bit_ceil(n));
        cap = end;
        endKey = end << bits;
        std::fill(node.begin(), node.begin() + 2 * leaves, none);
    }

    /** The packed key of @p core at @p ready (clamped to the end). */
    Key
    keyOf(std::uint32_t core, Cycle ready) const
    {
        return std::min(ready, cap) << bits | core;
    }

    /** Move @p core to @p ready. */
    void
    set(std::uint32_t core, Cycle ready)
    {
        std::uint32_t i = leaves + core;
        node[i] = keyOf(core, ready);
        for (; i > 1; i >>= 1)
            node[i >> 1] = std::min(node[i], node[i ^ 1]);
    }

    /** No core is ready before the slice end. */
    bool done() const { return node[1] >= endKey; }

    /** The core to step next (meaningful while !done()). */
    std::uint32_t
    winner() const
    {
        return static_cast<std::uint32_t>(node[1] & ((Key{1} << bits) - 1));
    }

    /** The winner's ready time (meaningful while !done()). */
    Cycle minReady() const { return node[1] >> bits; }

    /** The smallest key among every core but @p core (`none` when
     *  @p core is alone). */
    Key
    runnerUp(std::uint32_t core) const
    {
        Key best = none;
        for (std::uint32_t i = leaves + core; i > 1; i >>= 1)
            best = std::min(best, node[i ^ 1]);
        return best;
    }

    /**
     * The key @p core must stay strictly below to win the next pick
     * too: the runner-up's key, capped at the slice end.
     */
    Key
    burstBound(std::uint32_t core) const
    {
        return std::min(runnerUp(core), endKey);
    }

  private:
    std::uint32_t bits = 0;   //!< core-index bits in a key
    std::uint32_t leaves = 1; //!< padded leaf count (power of two)
    Cycle cap = 0;            //!< slice end
    Key endKey = 0;           //!< cap << bits
    //! Heap layout: node[1] is the root, node[i]'s children are
    //! node[2i] and node[2i + 1], leaves start at node[leaves].
    std::array<Key, 2 * maxCores> node{};
};

} // namespace rc

#endif // RC_SIM_READY_TREE_HH
