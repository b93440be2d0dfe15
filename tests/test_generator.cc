/** @file Unit tests for the synthetic stream generator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/log.hh"
#include "snapshot/serializer.hh"
#include "workloads/generator.hh"

namespace rc
{
namespace
{

AppProfile
simpleApp()
{
    AppProfile app;
    app.name = "test";
    app.memRatio = 0.35;
    app.writeRatio = 0.25;
    app.codeBytes = 16 * 1024;
    Component stream;
    stream.pattern = AccessPattern::Stream;
    stream.weight = 0.1;
    stream.regionBytes = 64ull << 20;
    Component zipf;
    zipf.pattern = AccessPattern::Zipf;
    zipf.weight = 0.05;
    zipf.regionBytes = 1ull << 20;
    zipf.zipfS = 0.9;
    app.components = {stream, zipf};
    return app;
}

/** A checkpoint image of simpleApp()'s stream state with the Stream
 *  component's cursor set to @p cursor and everything else zeroed. */
std::vector<std::uint8_t>
imageWithStreamCursor(std::uint64_t cursor)
{
    Serializer s;
    s.putU64(1); // rng state
    const auto put_comp = [&s](std::uint64_t c) {
        s.putU64(c); // cursor
        s.putU32(0); // burstLeft
        s.putU64(1); // scatter
        s.putU64(0); // salt
        s.putU64(0); // window
    };
    s.putU64(2); // components
    put_comp(cursor);
    put_comp(0);
    put_comp(0); // hot
    put_comp(0); // code
    s.putU64(0); // instrSinceFetch
    s.putU64(0); // refsInPhase
    s.putU64(0); // phaseIndex
    return s.image();
}

// Cursors wrap by comparison, so a checkpointed cursor past its region
// would never wrap: restore() must refuse it.
TEST(Generator, RestoreRejectsCursorPastRegion)
{
    SyntheticStream st(simpleApp(), 0, 42, 8);
    const std::uint64_t lines = (64ull << 20) / 8 / lineBytes;
    {
        Deserializer d(imageWithStreamCursor(lines - 1));
        st.restore(d);
    }
    Deserializer d(imageWithStreamCursor(lines));
    try {
        st.restore(d);
        FAIL() << "a cursor past the region was restored";
    } catch (const SimError &err) {
        EXPECT_EQ(err.kind(), SimError::Kind::Snapshot) << err.what();
    }
}

TEST(Generator, Deterministic)
{
    SyntheticStream a(simpleApp(), 0, 42, 8);
    SyntheticStream b(simpleApp(), 0, 42, 8);
    for (int i = 0; i < 5000; ++i) {
        const MemRef ra = a.next();
        const MemRef rb = b.next();
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.op, rb.op);
        EXPECT_EQ(ra.think, rb.think);
        EXPECT_EQ(ra.isInstr, rb.isInstr);
    }
}

TEST(Generator, CoresGetDisjointPrivateRegions)
{
    SyntheticStream a(simpleApp(), 0, 42, 8);
    SyntheticStream b(simpleApp(), 1, 42, 8);
    std::unordered_set<Addr> lines_a;
    for (int i = 0; i < 20000; ++i)
        lines_a.insert(lineAlign(a.next().addr));
    for (int i = 0; i < 20000; ++i)
        EXPECT_EQ(lines_a.count(lineAlign(b.next().addr)), 0u);
}

TEST(Generator, MemRatioRealized)
{
    SyntheticStream s(simpleApp(), 0, 42, 8);
    std::uint64_t instr = 0, data_refs = 0;
    for (int i = 0; i < 100000; ++i) {
        const MemRef r = s.next();
        if (r.isInstr)
            continue;
        instr += r.think + 1;
        ++data_refs;
    }
    const double ratio = static_cast<double>(data_refs) /
                         static_cast<double>(instr);
    EXPECT_NEAR(ratio, 0.35, 0.01);
}

TEST(Generator, WriteRatioRealized)
{
    SyntheticStream s(simpleApp(), 0, 42, 8);
    std::uint64_t writes = 0, data_refs = 0;
    for (int i = 0; i < 100000; ++i) {
        const MemRef r = s.next();
        if (r.isInstr) {
            EXPECT_EQ(r.op, MemOp::Read);
            continue;
        }
        ++data_refs;
        writes += r.op == MemOp::Write;
    }
    EXPECT_NEAR(static_cast<double>(writes) / data_refs, 0.25, 0.02);
}

TEST(Generator, InstructionFetchCadence)
{
    SyntheticStream s(simpleApp(), 0, 42, 8);
    std::uint64_t instr = 0, fetches = 0;
    for (int i = 0; i < 100000; ++i) {
        const MemRef r = s.next();
        if (r.isInstr)
            ++fetches;
        else
            instr += r.think + 1;
    }
    // One fetch per 32 instructions.
    EXPECT_NEAR(static_cast<double>(instr) / fetches, 32.0, 1.0);
}

TEST(Generator, ZipfConcentratesTraffic)
{
    // The hottest few lines of the Zipf component must receive a
    // disproportionate share - that is the reuse locality of Section 2.
    AppProfile app = simpleApp();
    app.components[1].weight = 0.5; // crank up zipf for signal
    app.components[0].weight = 0.0;
    SyntheticStream s(app, 0, 42, 8);
    std::unordered_map<Addr, std::uint64_t> counts;
    std::uint64_t zipf_total = 0;
    for (int i = 0; i < 200000; ++i) {
        const MemRef r = s.next();
        if (r.isInstr)
            continue;
        ++counts[lineAlign(r.addr)];
        ++zipf_total;
    }
    std::vector<std::uint64_t> sorted;
    for (const auto &[a, c] : counts)
        sorted.push_back(c);
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    std::uint64_t top_decile = 0;
    for (std::size_t i = 0; i < counts.size() / 10 + 1; ++i)
        top_decile += sorted[i];
    EXPECT_GT(static_cast<double>(top_decile) / zipf_total, 0.4);
}

TEST(Generator, StreamNeverRepeatsWithinWindow)
{
    AppProfile app = simpleApp();
    app.components[0].weight = 1.0;
    app.components[1].weight = 0.0;
    SyntheticStream s(app, 0, 42, 8);
    std::unordered_set<Addr> seen;
    for (int i = 0; i < 50000; ++i) {
        const MemRef r = s.next();
        if (r.isInstr)
            continue;
        EXPECT_TRUE(seen.insert(lineAlign(r.addr)).second);
    }
}

TEST(Generator, PhaseChangesRelocateHotSet)
{
    AppProfile app = simpleApp();
    app.components.clear(); // hot loop only
    app.phaseRefs = 80'000; // scaled by 8 -> 10'000 refs per phase
    SyntheticStream s(app, 0, 42, 8);
    // Collect the data-line set in two windows separated by > one phase.
    auto collect = [&s](int n) {
        std::set<Addr> lines;
        int taken = 0;
        while (taken < n) {
            const MemRef r = s.next();
            if (r.isInstr)
                continue;
            lines.insert(lineAlign(r.addr));
            ++taken;
        }
        return lines;
    };
    const auto w1 = collect(2000);
    collect(30000); // cross several phase boundaries
    const auto w2 = collect(2000);
    std::size_t common = 0;
    for (Addr a : w2)
        common += w1.count(a);
    // The hot window moved inside its universe: overlap is partial at
    // most (identical windows would mean phases are broken).
    EXPECT_LT(common, std::min(w1.size(), w2.size()));
}

TEST(Generator, ScaleShrinksRegions)
{
    AppProfile app = simpleApp();
    app.components[0].weight = 0.0;
    app.components[1].weight = 1.0; // zipf over 1 MB
    SyntheticStream s1(app, 0, 42, 1);
    SyntheticStream s8(app, 0, 42, 8);
    auto span = [](SyntheticStream &s) {
        std::set<Addr> lines;
        for (int i = 0; i < 50000; ++i) {
            const MemRef r = s.next();
            if (!r.isInstr)
                lines.insert(lineAlign(r.addr));
        }
        return lines.size();
    };
    EXPECT_GT(span(s1), 2 * span(s8));
}

TEST(Generator, AddressesFitPhysicalSpace)
{
    SyntheticStream s(simpleApp(), 7, 42, 1, 8);
    for (int i = 0; i < 50000; ++i)
        EXPECT_LT(s.next().addr, Addr{1} << physAddrBits);
}

TEST(Generator, Label)
{
    SyntheticStream s(simpleApp(), 0, 42, 8);
    EXPECT_STREQ(s.label(), "test");
}

TEST(Generator, SharedComponentsOverlapAcrossCores)
{
    AppProfile app;
    app.name = "par";
    Component shared;
    shared.pattern = AccessPattern::Zipf;
    shared.weight = 1.0;
    shared.regionBytes = 256 * 1024;
    shared.shared = true;
    shared.sharedId = 9;
    app.components = {shared};
    SyntheticStream a(app, 0, 42, 8);
    SyntheticStream b(app, 5, 42, 8);
    std::unordered_set<Addr> lines_a;
    for (int i = 0; i < 20000; ++i) {
        const MemRef r = a.next();
        if (!r.isInstr)
            lines_a.insert(lineAlign(r.addr));
    }
    std::uint64_t overlap = 0, total = 0;
    for (int i = 0; i < 20000; ++i) {
        const MemRef r = b.next();
        if (r.isInstr)
            continue;
        ++total;
        overlap += lines_a.count(lineAlign(r.addr));
    }
    EXPECT_GT(static_cast<double>(overlap) / total, 0.5);
}

// ---------------------------------------------------------------------
// Shared Zipf tables.
// ---------------------------------------------------------------------

/** The first @p n addresses a fresh core-0 stream of @p app emits. */
std::vector<Addr>
streamPrefix(const AppProfile &app, int n)
{
    SyntheticStream st(app, 0, 42, 8);
    std::vector<Addr> out;
    for (int i = 0; i < n; ++i)
        out.push_back(st.next().addr);
    return out;
}

TEST(ZipfTable, RankMatchesFullLowerBound)
{
    // The guide only narrows the search: every rank must be exactly
    // the lower_bound over the whole CDF, built the way streams build it.
    const std::uint64_t lines = 3000;
    const double s = 0.9;
    std::vector<double> cdf(lines);
    double sum = 0.0;
    for (std::uint64_t i = 0; i < lines; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf[i] = sum;
    }
    const auto table = ZipfTable::get(lines, s);
    EXPECT_EQ(table->total(), sum);
    Rng rng(11);
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform() * table->total();
        const auto want = static_cast<std::uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        ASSERT_EQ(table->rank(u), want) << "u=" << u;
    }
    for (std::uint64_t r : {std::uint64_t{0}, std::uint64_t{1},
                            lines / 2, lines - 1})
        EXPECT_EQ(table->rank(cdf[r]), r);
}

TEST(ZipfTable, EqualKeysShareOneTable)
{
    const auto a = ZipfTable::get(1000, 0.9);
    const auto b = ZipfTable::get(1000, 0.9);
    EXPECT_EQ(a.get(), b.get());

    // Two streams of one profile hold the same 2048-line s = 0.9 table
    // (1 MB / scale 8 / 64 B lines) that this test then asks for.
    SyntheticStream s1(simpleApp(), 0, 42, 8);
    SyntheticStream s2(simpleApp(), 1, 43, 8);
    const auto t = ZipfTable::get(2048, 0.9);
    EXPECT_EQ(t.use_count(), 3);
}

TEST(ZipfTable, DifferentKeysGetDifferentTables)
{
    const auto base = ZipfTable::get(1000, 0.9);
    const auto other_s = ZipfTable::get(1000, 1.0);
    const auto other_lines = ZipfTable::get(1001, 0.9);
    const auto next_s = ZipfTable::get(1000, std::nextafter(0.9, 1.0));
    EXPECT_NE(base.get(), other_s.get());
    EXPECT_NE(base.get(), other_lines.get());
    EXPECT_NE(base.get(), next_s.get());
    EXPECT_NE(base->total(), other_s->total());
    EXPECT_NE(base->total(), other_lines->total());
}

TEST(ZipfTable, RegistryDrainsWhenStreamsDie)
{
    const std::size_t before = ZipfTable::liveEntries();
    {
        // Keys no other live object holds: a 0.77 data region and a
        // 48-line code region (24 KB / scale 8).
        AppProfile app = simpleApp();
        app.components[1].zipfS = 0.77;
        app.codeBytes = 24 * 1024;
        SyntheticStream a(app, 0, 42, 8);
        SyntheticStream b(app, 1, 42, 8);
        EXPECT_EQ(ZipfTable::liveEntries(), before + 2);
    }
    EXPECT_EQ(ZipfTable::liveEntries(), before);
}

TEST(ZipfTable, ConcurrentConstructionIsRaceFree)
{
    // Eight threads build streams of three profiles at once (two keys
    // differ, the code table is common) and must each see exactly the
    // stream a serial build produces.
    std::vector<AppProfile> apps(3, simpleApp());
    apps[1].components[1].zipfS = 1.1;
    apps[2].components[1].regionBytes = 2ull << 20;
    std::vector<std::vector<Addr>> expected;
    for (const AppProfile &app : apps)
        expected.push_back(streamPrefix(app, 2000));
    const std::size_t before = ZipfTable::liveEntries();

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t k = 0; k < apps.size(); ++k) {
                const std::size_t a = (t + k) % apps.size();
                if (streamPrefix(apps[a], 2000) != expected[a])
                    ++mismatches;
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(ZipfTable::liveEntries(), before);
}

} // namespace
} // namespace rc
