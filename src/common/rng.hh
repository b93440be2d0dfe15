/**
 * @file
 * Small deterministic pseudo-random number generators.
 *
 * Every source of randomness in the simulator (victim selection, workload
 * generation, mix construction) draws from a seeded Xorshift64Star so that
 * identical seeds reproduce identical simulations.
 */

#ifndef RC_COMMON_RNG_HH
#define RC_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

#include "common/log.hh"

namespace rc
{

/** SplitMix64: used to expand a user seed into well-mixed stream seeds. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** Next 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/**
 * Xorshift64*: fast, decent-quality generator for simulation decisions.
 * Not suitable for cryptography; perfect for victim selection.
 */
class Rng
{
  public:
    /** Seed 0 is remapped (xorshift state must be non-zero). */
    explicit Rng(std::uint64_t seed = 0x2545f4914f6cdd1dULL)
        : state(seed ? seed : 0x9e3779b97f4a7c15ULL)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state = x;
        return x * 0x2545f4914f6cdd1dULL;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        RC_ASSERT(bound > 0, "below() needs a positive bound");
        // 128-bit multiply rejection-free mapping (Lemire).
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi]. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        RC_ASSERT(lo <= hi, "range() needs lo <= hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform 53-bit integer: the draw uniform() scales into [0, 1). */
    std::uint64_t next53() { return next() >> 11; }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next53()) * 0x1.0p-53;
    }

    /**
     * Integer form of chance(@p p): `next53() < chanceBelow(p)` picks
     * exactly what chance(p) picks from the same draw.  uniform() is
     * k * 2^-53 exactly, and k < p * 2^53 iff k < ceil(p * 2^53) for an
     * integer k; p >= 1 always passes, p <= 0 (or NaN) never does.
     */
    static std::uint64_t
    chanceBelow(double p)
    {
        constexpr std::uint64_t one = std::uint64_t{1} << 53;
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return one;
        return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * Raw generator state, for checkpointing.  Restoring rawState()
     * into setRawState() resumes the stream exactly where it left off.
     */
    std::uint64_t rawState() const { return state; }

    /** Restore a previously captured rawState() (0 is remapped as in the
     *  constructor, so a hostile snapshot cannot wedge the generator). */
    void
    setRawState(std::uint64_t s)
    {
        state = s ? s : 0x9e3779b97f4a7c15ULL;
    }

    /**
     * Geometric-ish draw: integer >= 1 with mean roughly @p mean.
     * Used for burst lengths in workload generation.
     */
    std::uint64_t
    geometric(double mean)
    {
        if (mean <= 1.0)
            return 1;
        const double p = 1.0 / mean;
        std::uint64_t n = 1;
        // Cap to keep pathological draws bounded.
        while (n < 64 * static_cast<std::uint64_t>(mean) && !chance(p))
            ++n;
        return n;
    }

  private:
    std::uint64_t state;
};

} // namespace rc

#endif // RC_COMMON_RNG_HH
