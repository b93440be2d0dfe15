/** @file
 * Exhaustive tests of the TO-MSI transition function against the paper's
 * Figure 3 / Table 1.
 */

#include <gtest/gtest.h>

#include "coherence/protocol.hh"

namespace rc
{
namespace
{

ProtoResult
step(LlcState s, ProtoEvent e, bool owner = false, bool selective = true)
{
    return protocolTransition(ProtoInput{s, e, owner, selective});
}

// ---------------------------------------------------------------------
// Figure 3: the dash-dotted arrows (tag-only -> tag+data) are the reuse
// detections; the dashed DataRepl arrows return to tag-only.
// ---------------------------------------------------------------------

TEST(ToMsi, MissAllocatesTagOnly)
{
    const auto r = step(LlcState::I, ProtoEvent::GETS);
    ASSERT_TRUE(r.legal);
    EXPECT_EQ(r.next, LlcState::TO);
    EXPECT_TRUE(r.actions & ActAllocTag);
    EXPECT_TRUE(r.actions & ActFetchMem);
    EXPECT_TRUE(r.actions & ActFillPrivate);
    EXPECT_FALSE(r.actions & ActAllocData) << "a miss is not a reuse";
}

TEST(ToMsi, WriteMissAllocatesTagOnlyWithOwnership)
{
    const auto r = step(LlcState::I, ProtoEvent::GETX);
    ASSERT_TRUE(r.legal);
    EXPECT_EQ(r.next, LlcState::TO);
    EXPECT_TRUE(r.actions & ActSetOwner);
    EXPECT_FALSE(r.actions & ActAllocData);
}

TEST(ToMsi, ReuseDetectionAllocatesData)
{
    // Paper Section 3: "On a hit in the tag array with no associated
    // data, a reuse is detected.  Thus, the line is read again from main
    // memory and loaded in the private cache and SLLC data array at the
    // same time."
    const auto r = step(LlcState::TO, ProtoEvent::GETS);
    ASSERT_TRUE(r.legal);
    EXPECT_EQ(r.next, LlcState::S);
    EXPECT_TRUE(r.actions & ActAllocData);
    EXPECT_TRUE(r.actions & ActFetchMem) << "the double-fetch cost";
    EXPECT_TRUE(r.actions & ActFillPrivate);
}

TEST(ToMsi, ReuseDetectionOnWrite)
{
    const auto r = step(LlcState::TO, ProtoEvent::GETX);
    ASSERT_TRUE(r.legal);
    EXPECT_EQ(r.next, LlcState::S);
    EXPECT_TRUE(r.actions & ActAllocData);
    EXPECT_TRUE(r.actions & ActInvSharers);
    EXPECT_TRUE(r.actions & ActSetOwner);
}

TEST(ToMsi, ReuseWithOwnerFetchesFromOwnerNotMemory)
{
    const auto r = step(LlcState::TO, ProtoEvent::GETS, true);
    ASSERT_TRUE(r.legal);
    EXPECT_EQ(r.next, LlcState::M) << "owner data is dirty w.r.t. memory";
    EXPECT_TRUE(r.actions & ActFetchOwner);
    EXPECT_TRUE(r.actions & ActAllocData);
    EXPECT_FALSE(r.actions & ActFetchMem);
    EXPECT_TRUE(r.actions & ActClearOwner);
}

TEST(ToMsi, DataReplKeepsTag)
{
    // "When a line is evicted from the data array, its tag remains in
    // the tag array."
    const auto clean = step(LlcState::S, ProtoEvent::DataRepl);
    ASSERT_TRUE(clean.legal);
    EXPECT_EQ(clean.next, LlcState::TO);
    EXPECT_FALSE(clean.actions & ActWriteMemData) << "clean: no writeback";

    const auto dirty = step(LlcState::M, ProtoEvent::DataRepl);
    ASSERT_TRUE(dirty.legal);
    EXPECT_EQ(dirty.next, LlcState::TO);
    EXPECT_TRUE(dirty.actions & ActWriteMemData);
}

TEST(ToMsi, DataReplWithOwnerSkipsWriteback)
{
    // The owner's private copy is the only valid one; the stale SLLC
    // copy can be dropped silently.
    const auto r = step(LlcState::M, ProtoEvent::DataRepl, true);
    ASSERT_TRUE(r.legal);
    EXPECT_EQ(r.next, LlcState::TO);
    EXPECT_FALSE(r.actions & ActWriteMemData);
}

TEST(ToMsi, DataReplIllegalWithoutData)
{
    EXPECT_FALSE(step(LlcState::TO, ProtoEvent::DataRepl).legal);
    EXPECT_FALSE(step(LlcState::I, ProtoEvent::DataRepl).legal);
}

// ---------------------------------------------------------------------
// Hits in the tag+data states.
// ---------------------------------------------------------------------

TEST(ToMsi, SharedHitServesData)
{
    const auto r = step(LlcState::S, ProtoEvent::GETS);
    ASSERT_TRUE(r.legal);
    EXPECT_EQ(r.next, LlcState::S);
    EXPECT_TRUE(r.actions & ActDataHit);
    EXPECT_FALSE(r.actions & ActFetchMem);
}

TEST(ToMsi, ModifiedHitStaysModified)
{
    const auto r = step(LlcState::M, ProtoEvent::GETS);
    ASSERT_TRUE(r.legal);
    EXPECT_EQ(r.next, LlcState::M);
    EXPECT_TRUE(r.actions & ActDataHit);
}

TEST(ToMsi, WriteHitInvalidatesSharers)
{
    for (LlcState s : {LlcState::S, LlcState::M}) {
        const auto r = step(s, ProtoEvent::GETX);
        ASSERT_TRUE(r.legal) << toString(s);
        EXPECT_TRUE(r.actions & ActInvSharers);
        EXPECT_TRUE(r.actions & ActSetOwner);
        EXPECT_TRUE(r.actions & ActDataHit);
    }
}

TEST(ToMsi, InterventionAbsorbsDirtyData)
{
    const auto r = step(LlcState::S, ProtoEvent::GETS, true);
    ASSERT_TRUE(r.legal);
    EXPECT_EQ(r.next, LlcState::M);
    EXPECT_TRUE(r.actions & ActFetchOwner);
    EXPECT_TRUE(r.actions & ActWriteLlcData);
    EXPECT_FALSE(r.actions & ActDataHit) << "the SLLC copy was stale";
}

TEST(ToMsi, UpgradeGrantsExclusivityWithoutData)
{
    for (LlcState s : {LlcState::TO, LlcState::S, LlcState::M}) {
        const auto r = step(s, ProtoEvent::UPG);
        ASSERT_TRUE(r.legal) << toString(s);
        EXPECT_EQ(r.next, s) << "UPG transfers no data";
        EXPECT_TRUE(r.actions & ActInvSharers);
        EXPECT_TRUE(r.actions & ActSetOwner);
        EXPECT_FALSE(r.actions & ActAllocData);
        EXPECT_FALSE(r.actions & ActFetchMem);
    }
}

// ---------------------------------------------------------------------
// Private evictions (PUTS / PUTX).
// ---------------------------------------------------------------------

TEST(ToMsi, PutsIsQuiet)
{
    for (LlcState s : {LlcState::TO, LlcState::S, LlcState::M}) {
        const auto r = step(s, ProtoEvent::PUTS);
        ASSERT_TRUE(r.legal) << toString(s);
        EXPECT_EQ(r.next, s);
        EXPECT_EQ(r.actions, 0u);
    }
}

TEST(ToMsi, PutxIntoDataArrayDirtiesIt)
{
    const auto r = step(LlcState::S, ProtoEvent::PUTX, true);
    ASSERT_TRUE(r.legal);
    EXPECT_EQ(r.next, LlcState::M);
    EXPECT_TRUE(r.actions & ActWriteLlcData);
    EXPECT_TRUE(r.actions & ActClearOwner);
    EXPECT_FALSE(r.actions & ActWriteMemPut);
}

TEST(ToMsi, PutxIntoTagOnlyWritesThroughToMemory)
{
    // "An eviction is not a reuse": no data allocation, write to memory.
    const auto r = step(LlcState::TO, ProtoEvent::PUTX, true);
    ASSERT_TRUE(r.legal);
    EXPECT_EQ(r.next, LlcState::TO);
    EXPECT_TRUE(r.actions & ActWriteMemPut);
    EXPECT_FALSE(r.actions & ActAllocData);
}

// ---------------------------------------------------------------------
// Tag replacement: "A tag replacement always finishes at I state".
// ---------------------------------------------------------------------

TEST(ToMsi, TagReplAlwaysReachesInvalid)
{
    for (LlcState s : {LlcState::TO, LlcState::S, LlcState::M}) {
        for (bool owner : {false, true}) {
            const auto r = step(s, ProtoEvent::TagRepl, owner);
            ASSERT_TRUE(r.legal) << toString(s) << " owner=" << owner;
            EXPECT_EQ(r.next, LlcState::I);
            EXPECT_TRUE(r.actions & ActRecallSharers);
        }
    }
}

TEST(ToMsi, TagReplWritesBackDirtyData)
{
    EXPECT_TRUE(step(LlcState::M, ProtoEvent::TagRepl).actions &
                ActWriteMemData);
    EXPECT_FALSE(step(LlcState::S, ProtoEvent::TagRepl).actions &
                 ActWriteMemData);
}

TEST(ToMsi, TagReplWithOwnerRetrievesDirtyCopy)
{
    for (LlcState s : {LlcState::TO, LlcState::S, LlcState::M}) {
        const auto r = step(s, ProtoEvent::TagRepl, true);
        EXPECT_TRUE(r.actions & ActFetchOwner) << toString(s);
        EXPECT_TRUE(r.actions & ActWriteMemPut) << toString(s);
    }
}

// ---------------------------------------------------------------------
// Prefetch-aware transitions (Section 6 extension).
// ---------------------------------------------------------------------

TEST(ToMsi, PrefetchTagOnlyHitIsNotAReuse)
{
    ProtoInput in{LlcState::TO, ProtoEvent::GETS, false, true, true};
    const auto r = protocolTransition(in);
    ASSERT_TRUE(r.legal);
    EXPECT_EQ(r.next, LlcState::TO) << "no promotion to a data state";
    EXPECT_TRUE(r.actions & ActFetchMem);
    EXPECT_TRUE(r.actions & ActFillPrivate);
    EXPECT_FALSE(r.actions & ActAllocData);
}

TEST(ToMsi, PrefetchTagOnlyWithOwnerWritesThrough)
{
    ProtoInput in{LlcState::TO, ProtoEvent::GETS, true, true, true};
    const auto r = protocolTransition(in);
    ASSERT_TRUE(r.legal);
    EXPECT_EQ(r.next, LlcState::TO);
    EXPECT_TRUE(r.actions & ActFetchOwner);
    EXPECT_TRUE(r.actions & ActWriteMemPut)
        << "the surrendered dirty data has no data-array home";
    EXPECT_FALSE(r.actions & ActAllocData);
}

TEST(ToMsi, PrefetchMissStillAllocatesTagOnly)
{
    ProtoInput in{LlcState::I, ProtoEvent::GETS, false, true, true};
    const auto r = protocolTransition(in);
    ASSERT_TRUE(r.legal);
    EXPECT_EQ(r.next, LlcState::TO);
    EXPECT_TRUE(r.actions & ActAllocTag);
}

TEST(ToMsi, PrefetchDataHitServesNormally)
{
    for (LlcState st : {LlcState::S, LlcState::M}) {
        ProtoInput in{st, ProtoEvent::GETS, false, true, true};
        const auto r = protocolTransition(in);
        ASSERT_TRUE(r.legal) << toString(st);
        EXPECT_TRUE(r.actions & ActDataHit);
        EXPECT_EQ(r.next, st);
    }
}

// ---------------------------------------------------------------------
// Illegal events (inclusion makes them unreachable).
// ---------------------------------------------------------------------

TEST(ToMsi, InvalidStateRejectsPrivateEvents)
{
    for (ProtoEvent e : {ProtoEvent::UPG, ProtoEvent::PUTS,
                         ProtoEvent::PUTX, ProtoEvent::DataRepl,
                         ProtoEvent::TagRepl}) {
        EXPECT_FALSE(step(LlcState::I, e).legal) << toString(e);
    }
}

// ---------------------------------------------------------------------
// Conventional mode (selectiveAlloc == false).
// ---------------------------------------------------------------------

TEST(ConvMsi, MissAllocatesTagAndData)
{
    const auto r = step(LlcState::I, ProtoEvent::GETS, false, false);
    ASSERT_TRUE(r.legal);
    EXPECT_EQ(r.next, LlcState::S);
    EXPECT_TRUE(r.actions & ActAllocTag);
    EXPECT_TRUE(r.actions & ActAllocData);
}

TEST(ConvMsi, TagOnlyStateUnreachable)
{
    EXPECT_FALSE(step(LlcState::TO, ProtoEvent::GETS, false, false).legal);
}

// ---------------------------------------------------------------------
// Whole-machine sweep: every legal transition lands in a stable state
// and never both fetches memory and serves a data hit.
// ---------------------------------------------------------------------

TEST(ToMsi, SweepConsistency)
{
    for (LlcState s : {LlcState::I, LlcState::TO, LlcState::S, LlcState::M}) {
        for (ProtoEvent e : {ProtoEvent::GETS, ProtoEvent::GETX,
                             ProtoEvent::UPG, ProtoEvent::PUTS,
                             ProtoEvent::PUTX, ProtoEvent::DataRepl,
                             ProtoEvent::TagRepl}) {
            for (bool owner : {false, true}) {
                for (bool sel : {false, true}) {
                    const auto r = step(s, e, owner, sel);
                    if (!r.legal)
                        continue;
                    // No transition both hits the data array and fetches.
                    EXPECT_FALSE((r.actions & ActDataHit) &&
                                 (r.actions & ActFetchMem));
                    // FetchOwner requires an owner in context.
                    if (r.actions & ActFetchOwner) {
                        EXPECT_TRUE(owner);
                    }
                    // Data allocation only into tag-bearing states.
                    if (r.actions & ActAllocData) {
                        EXPECT_TRUE(llcHasData(r.next));
                    }
                    // Tag-only next state never claims data.
                    if (r.next == LlcState::TO || r.next == LlcState::I) {
                        EXPECT_FALSE(r.actions & ActDataHit);
                    }
                }
            }
        }
    }
}

TEST(ToMsi, ActionsToStringReadable)
{
    EXPECT_EQ(actionsToString(0), "none");
    EXPECT_EQ(actionsToString(ActFetchMem | ActAllocData),
              "FetchMem|AllocData");
}

} // namespace
} // namespace rc
