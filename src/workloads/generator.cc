#include "workloads/generator.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "common/log.hh"
#include "snapshot/serializer.hh"

namespace rc
{

namespace
{

/** Per-core private window: 64 GB apart within the 40-bit space. */
Addr
privateBase(CoreId core, std::uint32_t slot)
{
    return (static_cast<Addr>(core) << 36) |
           (static_cast<Addr>(slot) << 30);
}

/** Shared window common to all cores. */
Addr
sharedBase(std::uint32_t shared_id)
{
    return (Addr{8} << 36) | (static_cast<Addr>(shared_id + 1) << 30);
}

std::uint64_t
scaledLines(std::uint64_t region_bytes, std::uint32_t scale)
{
    const std::uint64_t lines = region_bytes / scale / lineBytes;
    return std::max<std::uint64_t>(lines, 1);
}

/** @p cursor + 1, wrapped to 0 at @p lines (@p cursor < @p lines). */
std::uint64_t
wrapNext(std::uint64_t cursor, std::uint64_t lines)
{
    ++cursor;
    return cursor == lines ? 0 : cursor;
}

/** Lines per 1 GB component slot. */
constexpr std::uint64_t slotLines = (1ull << 30) / lineBytes;

/**
 * Scatter a region inside its slot.  Slot bases are 1 GB aligned, so
 * without an offset every region of every core would start at set 0 of
 * every cache and pile up in the low sets.  The offset is derived
 * deterministically from the slot identity (not the stream RNG) so
 * shared regions land at the same place for every core.
 */
Addr
scatterOffset(Addr base, std::uint64_t region_lines)
{
    if (region_lines >= slotLines)
        return 0;
    const std::uint64_t room = slotLines - region_lines;
    SplitMix64 h(base ^ 0xa2c1e7f3d4b59617ULL);
    return (h.next() % room) * lineBytes;
}

/**
 * Synthetic PC of a component's access site.  Derived from the app name
 * (FNV-1a) and the component slot — not the core — so two cores running
 * the same binary issue the same PCs, and PC-indexed predictors share
 * their training the way they would for a real multiprogrammed mix.
 * Never drawn from the stream RNG: adding PCs must not perturb the
 * generated address/think sequence.
 */
Addr
synthPcBase(const std::string &name, std::uint32_t slot)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char ch : name)
        h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
    SplitMix64 mix(h ^ (std::uint64_t{slot} * 0x9e3779b97f4a7c15ULL));
    // A 40-bit, 4-byte-aligned "text segment" address.
    return static_cast<Addr>(mix.next()) & ((Addr{1} << 40) - 4);
}

} // namespace

SyntheticStream::SyntheticStream(const AppProfile &app, CoreId core,
                                 std::uint64_t seed, std::uint32_t scale,
                                 std::uint32_t num_cores)
    : appName(app.name),
      writeBelow(Rng::chanceBelow(app.writeRatio)),
      rng(SplitMix64(seed ^ (0x5851f42d4c957f2dULL * (core + 1))).next())
{
    RC_ASSERT(scale >= 1, "capacity scale must be at least 1");
    RC_ASSERT(app.memRatio > 0.0 && app.memRatio <= 1.0,
              "memRatio out of range for %s", app.name.c_str());

    const double mean_think = 1.0 / app.memRatio - 1.0;
    thinkLo = static_cast<std::uint32_t>(mean_think);
    thinkUpBelow = Rng::chanceBelow(mean_think - thinkLo);

    double cumulative = 0.0;
    std::uint32_t slot = 1;
    for (const Component &c : app.components) {
        CompState st;
        st.pattern = c.pattern;
        st.lines = scaledLines(c.regionBytes, scale);
        st.burstLines = std::max<std::uint32_t>(c.burstLines, 1);
        if (c.pattern == AccessPattern::Loop && !c.shared) {
            // Private loops relocate within an 8x universe at phase
            // boundaries.
            st.universeLines = st.lines * 8;
        } else {
            st.universeLines = st.lines;
        }
        st.base = c.shared ? sharedBase(c.sharedId)
                           : privateBase(core, slot);
        st.base += scatterOffset(st.base, st.universeLines);
        st.pcBase = synthPcBase(app.name, slot);
        if (c.pattern == AccessPattern::Stream) {
            // Parallel sweeps start staggered (domain decomposition).
            // Cursors stay below lines (genLine wraps by comparison).
            st.cursor = c.shared && num_cores
                ? (st.lines / num_cores) * core % st.lines
                : 0;
        }
        if (c.pattern == AccessPattern::Zipf) {
            st.zipf = ZipfTable::get(st.lines, c.zipfS);
            // Scatter hot ranks across the region so they spread over
            // cache sets; an odd multiplier keeps power-of-two coverage.
            st.scatter = 0x9E3779B9u | 1u;
        }
        comps.push_back(std::move(st));
        RC_ASSERT(c.weight >= 0.0, "negative component weight in %s",
                  app.name.c_str());
        cumulative += c.weight;
        // uniform() < cumulative iff k * 2^-53 < cumulative iff
        // floor(cumulative * 2^53) < k, both scalings being exact.
        pickFloor.push_back(
            static_cast<std::uint64_t>(cumulative * 0x1.0p53));
        ++slot;
    }
    RC_ASSERT(cumulative <= 1.0 + 1e-9,
              "component weights of %s exceed 1", app.name.c_str());

    hot.pattern = AccessPattern::Loop;
    hot.lines = scaledLines(16 * 1024, scale);
    hot.universeLines = hot.lines * 8;
    hot.base = privateBase(core, 62);
    hot.base += scatterOffset(hot.base, hot.universeLines);
    hot.pcBase = synthPcBase(app.name, 62);

    // Instruction fetches follow a skewed popularity distribution over
    // the code region (hot basic blocks dominate); a cyclic walk would
    // pathologically defeat the L1I for any footprint above its size.
    code.pattern = AccessPattern::Zipf;
    code.lines = scaledLines(app.codeBytes, scale);
    code.base = privateBase(core, 63);
    code.base += scatterOffset(code.base, code.lines);
    code.scatter = 0x9E3779B9u | 1u;
    code.zipf = ZipfTable::get(code.lines, 1.3);

    // Phase behaviour: every refsPerPhase data references the hot sets
    // relocate and the popularity rankings reshuffle.  Cores start at
    // staggered positions within their first phase.
    refsPerPhase = app.phaseRefs / scale;
    phaseSeed = SplitMix64(seed ^ 0xfeedfacecafebeefULL ^ core).next();
    if (refsPerPhase > 0)
        refsInPhase = SplitMix64(phaseSeed).next() % refsPerPhase;
}

void
SyntheticStream::reseedComponent(CompState &comp, std::uint64_t mix)
{
    SplitMix64 h(phaseSeed ^ (phaseIndex * 0x9e3779b97f4a7c15ULL) ^ mix);
    switch (comp.pattern) {
      case AccessPattern::Loop:
        if (comp.universeLines > comp.lines)
            comp.window = h.next() % (comp.universeLines - comp.lines);
        break;
      case AccessPattern::Zipf:
        // New popularity ranking: different lines become hot.
        comp.scatter = h.next() | 1u;
        comp.salt = h.next();
        break;
      default:
        break; // Stream/Chase/Uniform are memoryless
    }
}

void
SyntheticStream::advancePhase()
{
    ++phaseIndex;
    refsInPhase = 0;
    std::uint64_t mix = 1;
    for (auto &c : comps)
        reseedComponent(c, mix++);
    reseedComponent(hot, 0x68f7);
    reseedComponent(code, 0xc0de);
}

namespace
{

/** Registry key: the line count and the bit pattern of the exponent
 *  (exact, so no two distinct exponents can alias). */
using ZipfKey = std::pair<std::uint64_t, std::uint64_t>;

struct ZipfRegistry
{
    std::mutex mutex;
    std::map<ZipfKey, std::weak_ptr<const ZipfTable>> tables;

    /** Drop the entries whose table died (caller holds the mutex). */
    void
    prune()
    {
        std::erase_if(tables,
                      [](const auto &kv) { return kv.second.expired(); });
    }
};

/** Never destroyed, so streams built or dropped during static
 *  initialization or teardown still find it. */
ZipfRegistry &
zipfRegistry()
{
    static ZipfRegistry *const registry = new ZipfRegistry;
    return *registry;
}

} // namespace

std::shared_ptr<const ZipfTable>
ZipfTable::get(std::uint64_t lines, double s)
{
    const ZipfKey key{lines, std::bit_cast<std::uint64_t>(s)};
    ZipfRegistry &reg = zipfRegistry();
    {
        std::lock_guard<std::mutex> lock(reg.mutex);
        const auto it = reg.tables.find(key);
        if (it != reg.tables.end()) {
            if (auto live = it->second.lock())
                return live;
        }
    }
    // Build outside the lock so streams needing different tables
    // construct in parallel; a racing builder of the same key adopts
    // whichever table reached the registry first.
    auto built = std::make_shared<const ZipfTable>(lines, s);
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto &slot = reg.tables[key];
    if (auto live = slot.lock())
        return live;
    slot = built;
    reg.prune();
    return built;
}

std::size_t
ZipfTable::liveEntries()
{
    ZipfRegistry &reg = zipfRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.prune();
    return reg.tables.size();
}

// The Zipf CDF inversion is the hottest per-reference operation: a
// binary search over a region-sized array of doubles whose probes miss
// cache.  The guide table maps equal-probability slices of [0, total)
// to the CDF range containing them, shrinking the search to a handful
// of adjacent elements.  It accelerates lower_bound without replacing
// it: for any u the returned rank is exactly the rank the full-array
// lower_bound would return, so the generated stream is bit-identical.
ZipfTable::ZipfTable(std::uint64_t lines, double s) : cdf(lines)
{
    double sum = 0.0;
    for (std::uint64_t i = 0; i < lines; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf[i] = sum;
    }

    const std::uint64_t n = cdf.size();
    guide.assign(n + 1, 0);
    const double total = cdf.back();
    guideScale = static_cast<double>(n) / total;
    std::uint64_t i = 0;
    for (std::uint64_t g = 0; g <= n; ++g) {
        const double bound =
            total * (static_cast<double>(g) / static_cast<double>(n));
        while (i < n && cdf[i] < bound)
            ++i;
        guide[g] = static_cast<std::uint32_t>(i);
    }
}

std::uint64_t
ZipfTable::rank(double u) const
{
    const std::uint64_t n = cdf.size();
    // Reciprocal multiply instead of dividing by the total: the bucket
    // index is only a starting hint, so its rounding is non-semantic —
    // the widening loops below restore exactness.
    std::uint64_t g = static_cast<std::uint64_t>(u * guideScale);
    if (g >= n)
        g = n - 1;
    std::uint64_t lo = guide[g];
    std::uint64_t hi = guide[g + 1];
    if (hi == 0)
        hi = 1; // the bracket must cover at least cdf[0]
    // The bucket index suffers float rounding the guide construction
    // does not; widen until [lo, hi) provably brackets the global
    // lower_bound answer (first index with cdf[i] >= u).
    while (lo > 0 && cdf[lo - 1] >= u)
        --lo;
    while (hi < n && cdf[hi - 1] < u)
        ++hi;
    const auto it = std::lower_bound(cdf.begin() + static_cast<std::ptrdiff_t>(lo),
                                     cdf.begin() + static_cast<std::ptrdiff_t>(hi),
                                     u);
    return static_cast<std::uint64_t>(it - cdf.begin());
}

Addr
SyntheticStream::genLine(CompState &comp)
{
    std::uint64_t line = 0;
    switch (comp.pattern) {
      case AccessPattern::Loop:
        line = comp.window + comp.cursor;
        comp.cursor = wrapNext(comp.cursor, comp.lines);
        break;
      case AccessPattern::Stream:
        line = comp.cursor;
        comp.cursor = wrapNext(comp.cursor, comp.lines);
        break;
      case AccessPattern::Uniform:
        line = rng.below(comp.lines);
        break;
      case AccessPattern::Zipf: {
        const ZipfTable &table = *comp.zipf;
        const double u = rng.uniform() * table.total();
        const std::uint64_t rank = table.rank(u);
        line = (rank * comp.scatter + comp.salt) % comp.lines;
        break;
      }
      case AccessPattern::Chase:
        if (comp.burstLeft > 0) {
            --comp.burstLeft;
            comp.cursor = wrapNext(comp.cursor, comp.lines);
        } else {
            comp.cursor = rng.below(comp.lines);
            comp.burstLeft = static_cast<std::uint32_t>(
                rng.geometric(comp.burstLines)) - 1;
        }
        line = comp.cursor;
        break;
    }
    return comp.base + line * lineBytes;
}

MemRef
SyntheticStream::makeDataRef()
{
    if (refsPerPhase > 0 && ++refsInPhase >= refsPerPhase)
        advancePhase();

    CompState *comp = &hot;
    if (!comps.empty()) {
        // The first component whose cumulative weight is not below the
        // draw (a lower_bound over the cumulative weights), counted
        // without branches; the weights are non-negative, so the
        // entries below the draw are exactly a prefix.
        const std::uint64_t k = rng.next53();
        std::size_t pick = 0;
        for (std::uint64_t t : pickFloor)
            pick += t < k;
        if (pick < comps.size())
            comp = &comps[pick];
    }

    MemRef ref;
    // Two statements, so the draw order is fixed: genLine's draws (if
    // any) come before the word offset's.  Within one expression the
    // order of the two calls would be unspecified.
    const Addr line = genLine(*comp);
    ref.addr = line + rng.below(8) * 8;
    ref.op = rng.next53() < writeBelow ? MemOp::Write : MemOp::Read;
    ref.think = thinkLo + (rng.next53() < thinkUpBelow ? 1 : 0);
    ref.isInstr = false;
    // Loads and stores of one component come from two distinct
    // instructions of its loop body.
    ref.pc = comp->pcBase + (ref.op == MemOp::Write ? 4 : 0);
    return ref;
}

MemRef
SyntheticStream::next()
{
    if (instrSinceFetch >= instrPerFetch) {
        instrSinceFetch -= instrPerFetch;
        MemRef ref;
        ref.addr = genLine(code);
        ref.op = MemOp::Read;
        ref.think = 0;
        ref.isInstr = true;
        ref.pc = ref.addr; // a fetch's PC is the fetched address
        return ref;
    }
    MemRef ref = makeDataRef();
    instrSinceFetch += ref.think + 1;
    return ref;
}

// Only the fields next()/advancePhase() mutate are serialized; the layout
// (base, lines, pattern, Zipf table) is ctor-derived and reconstructed from
// the profile.
void
SyntheticStream::save(Serializer &s) const
{
    s.putU64(rng.rawState());
    const auto put_comp = [&s](const CompState &c) {
        s.putU64(c.cursor);
        s.putU32(c.burstLeft);
        s.putU64(c.scatter);
        s.putU64(c.salt);
        s.putU64(c.window);
    };
    s.putU64(comps.size());
    for (const CompState &c : comps)
        put_comp(c);
    put_comp(hot);
    put_comp(code);
    s.putU64(instrSinceFetch);
    s.putU64(refsInPhase);
    s.putU64(phaseIndex);
}

void
SyntheticStream::restore(Deserializer &d)
{
    rng.setRawState(d.getU64());
    const auto get_comp = [&d](CompState &c) {
        c.cursor = d.getU64();
        c.burstLeft = d.getU32();
        c.scatter = d.getU64();
        c.salt = d.getU64();
        c.window = d.getU64();
    };
    const std::uint64_t n = d.getU64();
    if (n != comps.size())
        throwSimError(SimError::Kind::Snapshot,
                      "stream '%s' has %zu components but the checkpoint "
                      "carries %llu",
                      appName.c_str(), comps.size(), (unsigned long long)n);
    for (CompState &c : comps)
        get_comp(c);
    get_comp(hot);
    get_comp(code);
    const auto check_cursor = [this](const CompState &c) {
        if (c.cursor >= c.lines)
            throwSimError(SimError::Kind::Snapshot,
                          "stream '%s': checkpointed cursor %llu is past "
                          "its %llu-line region", appName.c_str(),
                          static_cast<unsigned long long>(c.cursor),
                          static_cast<unsigned long long>(c.lines));
    };
    for (const CompState &c : comps)
        check_cursor(c);
    check_cursor(hot);
    check_cursor(code);
    instrSinceFetch = d.getU64();
    refsInPhase = d.getU64();
    phaseIndex = d.getU64();
}

} // namespace rc
