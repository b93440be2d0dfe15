/**
 * @file
 * Vectorized way-scans over contiguous SoA lanes.
 *
 * Every set-associative array in the repository keeps its scan key in a
 * packed lane (64-bit tags, or an 8-bit occupancy byte per way), so the
 * per-access search is a fixed-width compare over contiguous memory.
 * This header centralizes that search and selects an implementation at
 * compile time: AVX2 where the target enables it (-march with AVX2),
 * SSE2 on every other x86-64 target (SSE2 is part of the baseline ISA,
 * so the default portable build gets it), NEON on AArch64, and a
 * branchless scalar loop everywhere else (or when RC_SIMD is disabled).
 *
 * All variants return the FIRST matching way, which is what the callers
 * need: private tag stores never hold duplicate tags (a sentinel marks
 * invalid ways), and the LLC arrays resolve the rare duplicate-after-
 * corruption case by resuming the scan past a rejected candidate.
 */

#ifndef RC_COMMON_WAYSCAN_HH
#define RC_COMMON_WAYSCAN_HH

#include <bit>
#include <cstdint>

#if !defined(RC_SIMD_DISABLED) && defined(__AVX2__)
#define RC_WAYSCAN_AVX2 1
#include <immintrin.h>
#elif !defined(RC_SIMD_DISABLED) && defined(__SSE2__)
#define RC_WAYSCAN_SSE2 1
#include <emmintrin.h>
#elif !defined(RC_SIMD_DISABLED) && \
    (defined(__ARM_NEON) || defined(__ARM_NEON__) || defined(__aarch64__))
#define RC_WAYSCAN_NEON 1
#include <arm_neon.h>
#endif

namespace rc
{

/** Name of the way-scan implementation compiled in (reports/tests). */
inline const char *
wayScanBackend()
{
#if defined(RC_WAYSCAN_AVX2)
    return "avx2";
#elif defined(RC_WAYSCAN_SSE2)
    return "sse2";
#elif defined(RC_WAYSCAN_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

/**
 * Tag-lane value no real tag can take: line addresses are at most 40
 * bits, so an all-ones 64-bit word marks an invalid way and keeps the
 * scan a single compare per way with no validity load.
 */
inline constexpr std::uint64_t kInvalidTagLane = ~std::uint64_t{0};

/**
 * First way in [0, W) of @p lane equal to @p key, or -1.
 * W must be a multiple of 4 (the repository uses 4, 8 and 16).
 */
template <std::uint32_t W>
inline std::int32_t
scanWays(const std::uint64_t *lane, std::uint64_t key)
{
    static_assert(W % 4 == 0, "scanWays widths are multiples of 4");
#if defined(RC_WAYSCAN_AVX2)
    const __m256i k = _mm256_set1_epi64x(static_cast<long long>(key));
    std::uint32_t mask = 0;
    for (std::uint32_t w = 0; w < W; w += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(lane + w));
        const __m256i eq = _mm256_cmpeq_epi64(v, k);
        mask |= static_cast<std::uint32_t>(
                    _mm256_movemask_pd(_mm256_castsi256_pd(eq)))
                << w;
    }
    return mask ? std::countr_zero(mask) : -1;
#elif defined(RC_WAYSCAN_SSE2)
    // SSE2 has no 64-bit compare: compare 32-bit halves, narrow the
    // results with saturating packs (all-ones stays all-ones), and take
    // one byte mask per 4 or 8 ways.  A way matches when the mask bits
    // of both its halves are set.
    static_assert(W == 4 || W == 8 || W == 16,
                  "SSE2 scans take 4, 8 or 16 ways");
    const __m128i k = _mm_set1_epi64x(static_cast<long long>(key));
    const auto eq = [&](std::uint32_t w) {
        return _mm_cmpeq_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(lane + w)), k);
    };
    if constexpr (W == 4) {
        // Four mask bits per way: two per 16-bit half.
        std::uint32_t m = static_cast<std::uint32_t>(
            _mm_movemask_epi8(_mm_packs_epi32(eq(0), eq(2))));
        m &= (m >> 2) & 0x1111u;
        return m ? std::countr_zero(m) >> 2 : -1;
    } else {
        // Two mask bits per way: one per 8-bit half.
        std::uint32_t m = 0;
        for (std::uint32_t w = 0; w < W; w += 8) {
            const __m128i lo = _mm_packs_epi32(eq(w), eq(w + 2));
            const __m128i hi = _mm_packs_epi32(eq(w + 4), eq(w + 6));
            m |= static_cast<std::uint32_t>(
                     _mm_movemask_epi8(_mm_packs_epi16(lo, hi)))
                 << (2 * w);
        }
        m &= (m >> 1) & 0x55555555u;
        return m ? std::countr_zero(m) >> 1 : -1;
    }
#elif defined(RC_WAYSCAN_NEON)
    const uint64x2_t k = vdupq_n_u64(key);
    for (std::uint32_t w = 0; w < W; w += 2) {
        const uint64x2_t eq = vceqq_u64(vld1q_u64(lane + w), k);
        // Narrow each 64-bit lane to 32 bits: one u64 whose halves are
        // all-ones/all-zeros per way, checked in ascending way order.
        const std::uint64_t bits =
            vget_lane_u64(vreinterpret_u64_u32(vmovn_u64(eq)), 0);
        if (bits)
            return static_cast<std::int32_t>(
                w + ((bits & 0xffffffffull) ? 0 : 1));
    }
    return -1;
#else
    // Branchless first-match: walk downwards so the smallest matching
    // way is the last assignment the compiler keeps.
    std::int32_t hit = -1;
    for (std::int32_t w = static_cast<std::int32_t>(W) - 1; w >= 0; --w) {
        if (lane[w] == key)
            hit = w;
    }
    return hit;
#endif
}

/** Runtime-width dispatch over the fixed-width kernels. */
inline std::int32_t
scanWays(const std::uint64_t *lane, std::uint32_t ways, std::uint64_t key)
{
    switch (ways) {
      case 4: return scanWays<4>(lane, key);
      case 8: return scanWays<8>(lane, key);
      case 16: return scanWays<16>(lane, key);
      default:
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (lane[w] == key)
                return static_cast<std::int32_t>(w);
        }
        return -1;
    }
}

/**
 * First way in [from, ways) equal to @p key, or -1.  Cold continuation
 * of scanWays() for callers that reject a candidate (an LLC way whose
 * tag matches but whose state was forced invalid by fault injection).
 */
inline std::int32_t
scanWaysFrom(const std::uint64_t *lane, std::uint32_t ways,
             std::uint64_t key, std::uint32_t from)
{
    for (std::uint32_t w = from; w < ways; ++w) {
        if (lane[w] == key)
            return static_cast<std::int32_t>(w);
    }
    return -1;
}

/**
 * First zero byte in @p lane[0, n), or -1 when every byte is non-zero.
 * Free-way search over an occupancy lane; the reuse cache's preferred
 * data array is fully associative (a single set of thousands of ways),
 * so this scan is worth vectorizing.
 */
inline std::int32_t
scanFirstFree(const std::uint8_t *lane, std::uint32_t n)
{
    std::uint32_t w = 0;
#if defined(RC_WAYSCAN_AVX2)
    const __m256i zero = _mm256_setzero_si256();
    for (; w + 32 <= n; w += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(lane + w));
        const std::uint32_t mask = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero)));
        if (mask)
            return static_cast<std::int32_t>(w + std::countr_zero(mask));
    }
#elif defined(RC_WAYSCAN_SSE2)
    const __m128i zero = _mm_setzero_si128();
    for (; w + 16 <= n; w += 16) {
        const __m128i v =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(lane + w));
        const std::uint32_t mask = static_cast<std::uint32_t>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(v, zero)));
        if (mask)
            return static_cast<std::int32_t>(w + std::countr_zero(mask));
    }
#elif defined(RC_WAYSCAN_NEON)
    for (; w + 16 <= n; w += 16) {
        const uint8x16_t eq = vceqq_u8(vld1q_u8(lane + w), vdupq_n_u8(0));
        // Shift-narrow to a 64-bit mask of 4 bits per byte.
        const std::uint64_t bits = vget_lane_u64(
            vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(eq), 4)),
            0);
        if (bits)
            return static_cast<std::int32_t>(
                w + (std::countr_zero(bits) >> 2));
    }
#endif
    for (; w < n; ++w) {
        if (!lane[w])
            return static_cast<std::int32_t>(w);
    }
    return -1;
}

} // namespace rc

#endif // RC_COMMON_WAYSCAN_HH
