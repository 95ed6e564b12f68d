/**
 * @file
 * Protocol-level tests for conventional GPU coherence (GD and GH):
 * writethrough visibility, flash invalidation, HRF per-word dirty
 * bits, local vs global atomics, and store-buffer behaviour.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

using namespace nosync;
using namespace nosync::test;

namespace
{

SystemConfig
gdConfig()
{
    SystemConfig config;
    config.protocol = ProtocolConfig::gd();
    return config;
}

SystemConfig
ghConfig()
{
    SystemConfig config;
    config.protocol = ProtocolConfig::gh();
    return config;
}

constexpr Addr kData = 0x10000;
constexpr Addr kFlag = 0x20000;

} // namespace

TEST(GpuProtocol, LoadMissReturnsMemoryValue)
{
    System sys(gdConfig());
    sys.writeInit(kData, 1234);
    EXPECT_EQ(doLoad(sys, 0, kData), 1234u);
}

TEST(GpuProtocol, SecondLoadHitsInL1)
{
    System sys(gdConfig());
    sys.writeInit(kData, 7);
    doLoad(sys, 0, kData);
    double misses_before =
        sys.stats().find("l1.0.load_misses")->value();
    EXPECT_EQ(doLoad(sys, 0, kData + 4), 0u); // same line, word 1
    EXPECT_EQ(sys.stats().find("l1.0.load_misses")->value(), misses_before);
}

TEST(GpuProtocol, StoreForwardsLocallyBeforeWritethrough)
{
    System sys(gdConfig());
    doStore(sys, 0, kData, 55);
    // Locally visible immediately...
    EXPECT_EQ(doLoad(sys, 0, kData), 55u);
    // ...but not yet at the shared L2 (no release yet).
    unsigned bank = (kData / kLineBytes) % 16;
    EXPECT_EQ(as<GpuL2Bank>(sys.l2Bank(bank))->peekWord(kData), 0u);
}

TEST(GpuProtocol, DrainWritesThroughToL2)
{
    System sys(gdConfig());
    doStore(sys, 0, kData, 55);
    doDrain(sys, 0);
    unsigned bank = (kData / kLineBytes) % 16;
    EXPECT_EQ(as<GpuL2Bank>(sys.l2Bank(bank))->peekWord(kData), 55u);
    EXPECT_EQ(as<GpuL1Cache>(sys.l1(0))->storeBufferSize(), 0u);
}

TEST(GpuProtocol, KernelEndDrains)
{
    System sys(gdConfig());
    doStore(sys, 0, kData, 99);
    bool done = false;
    sys.l1(0).kernelEnd([&] { done = true; });
    while (!done && sys.eventQueue().step()) {
    }
    ASSERT_TRUE(done);
    unsigned bank = (kData / kLineBytes) % 16;
    EXPECT_EQ(as<GpuL2Bank>(sys.l2Bank(bank))->peekWord(kData), 99u);
}

TEST(GpuProtocol, GlobalAcquireFlashInvalidates)
{
    System sys(gdConfig());
    sys.writeInit(kData, 3);
    doLoad(sys, 0, kData);
    EXPECT_TRUE(as<GpuL1Cache>(sys.l1(0))->wordValid(kData));
    doSync(sys, 0,
           makeSync(AtomicFunc::Load, kFlag, 0, 0, Scope::Global,
                    SyncSemantics::Acquire));
    EXPECT_FALSE(as<GpuL1Cache>(sys.l1(0))->wordValid(kData));
}

TEST(GpuProtocol, HrfKeepsDirtyWordsAcrossGlobalAcquire)
{
    System sys(ghConfig());
    doStore(sys, 0, kData, 42);
    doSync(sys, 0,
           makeSync(AtomicFunc::Load, kFlag, 0, 0, Scope::Global,
                    SyncSemantics::Acquire));
    // The CU's own partial write survives (per-word dirty bit).
    EXPECT_TRUE(as<GpuL1Cache>(sys.l1(0))->wordValid(kData));
    EXPECT_EQ(doLoad(sys, 0, kData), 42u);
}

TEST(GpuProtocol, GlobalAtomicExecutesAtL2)
{
    System sys(gdConfig());
    sys.writeInit(kFlag, 10);
    std::uint32_t old_val =
        doSync(sys, 0, makeSync(AtomicFunc::FetchAdd, kFlag, 5));
    EXPECT_EQ(old_val, 10u);
    unsigned bank = (kFlag / kLineBytes) % 16;
    EXPECT_EQ(as<GpuL2Bank>(sys.l2Bank(bank))->peekWord(kFlag), 15u);
    EXPECT_GE(sys.stats().find("l1.0.sync_misses")->value(), 1.0);
}

TEST(GpuProtocol, HrfLocalAtomicExecutesAtL1)
{
    System sys(ghConfig());
    sys.writeInit(kFlag, 1);
    std::uint32_t old_val = doSync(
        sys, 0, makeSync(AtomicFunc::FetchAdd, kFlag, 1, 0,
                         Scope::Local));
    EXPECT_EQ(old_val, 1u);
    // Performed locally: the L2 copy is untouched until a global
    // release flushes dirty words.
    unsigned bank = (kFlag / kLineBytes) % 16;
    EXPECT_EQ(as<GpuL2Bank>(sys.l2Bank(bank))->peekWord(kFlag), 1u);
    doDrain(sys, 0);
    EXPECT_EQ(as<GpuL2Bank>(sys.l2Bank(bank))->peekWord(kFlag), 2u);
}

TEST(GpuProtocol, MessagePassingBetweenCus)
{
    System sys(gdConfig());
    // Producer on CU 0.
    doStore(sys, 0, kData, 777);
    doSync(sys, 0,
           makeSync(AtomicFunc::Store, kFlag, 1, 0, Scope::Global,
                    SyncSemantics::Release));
    // Consumer on CU 1: acquire sees the flag, then the data.
    std::uint32_t flag = doSync(
        sys, 1, makeSync(AtomicFunc::Load, kFlag, 0, 0, Scope::Global,
                         SyncSemantics::Acquire));
    EXPECT_EQ(flag, 1u);
    EXPECT_EQ(doLoad(sys, 1, kData), 777u);
}

TEST(GpuProtocol, StaleCopyInvalidatedByAcquire)
{
    System sys(gdConfig());
    sys.writeInit(kData, 1);
    // CU 1 caches the old value.
    EXPECT_EQ(doLoad(sys, 1, kData), 1u);
    // CU 0 updates and releases.
    doStore(sys, 0, kData, 2);
    doSync(sys, 0,
           makeSync(AtomicFunc::Store, kFlag, 1, 0, Scope::Global,
                    SyncSemantics::Release));
    // Without an acquire CU 1 may still see 1; after an acquire it
    // must see 2.
    doSync(sys, 1,
           makeSync(AtomicFunc::Load, kFlag, 0, 0, Scope::Global,
                    SyncSemantics::Acquire));
    EXPECT_EQ(doLoad(sys, 1, kData), 2u);
}

TEST(GpuProtocol, StoreBufferOverflowForcesDrain)
{
    SystemConfig config = gdConfig();
    config.geometry.storeBufferEntries = 4;
    System sys(config);
    // Five distinct words: the fifth store must force a drain.
    for (unsigned i = 0; i < 5; ++i)
        doStore(sys, 0, kData + i * kWordBytes, i + 1);
    EXPECT_GE(sys.stats().find("l1.0.sb_overflow_drains")->value(), 1.0);
    // All values remain visible.
    for (unsigned i = 0; i < 5; ++i)
        EXPECT_EQ(doLoad(sys, 0, kData + i * kWordBytes), i + 1);
}

TEST(GpuProtocol, EvictionPreservesPendingWrites)
{
    // Tiny L1 (2 sets x 2 ways) so fills evict aggressively.
    SystemConfig config = gdConfig();
    config.geometry.l1Bytes = 256;
    config.geometry.l1Assoc = 2;
    System sys(config);
    doStore(sys, 0, kData, 123);
    // March loads through enough lines to evict everything.
    for (unsigned i = 1; i <= 8; ++i)
        doLoad(sys, 0, kData + i * 0x100);
    EXPECT_EQ(doLoad(sys, 0, kData), 123u);
    doDrain(sys, 0);
    EXPECT_EQ(sys.debugRead(kData), 123u);
}

TEST(GpuProtocol, HrfDirtyWordFlushedOnEviction)
{
    SystemConfig config = ghConfig();
    config.geometry.l1Bytes = 256;
    config.geometry.l1Assoc = 2;
    System sys(config);
    doStore(sys, 0, kData, 31);
    for (unsigned i = 1; i <= 8; ++i)
        doLoad(sys, 0, kData + i * 0x100);
    drainEvents(sys);
    // The dirty word was written through when its frame was reused.
    EXPECT_EQ(sys.debugRead(kData), 31u);
}

TEST(GpuProtocol, AtomicReturnValueChains)
{
    System sys(gdConfig());
    for (std::uint32_t i = 0; i < 10; ++i) {
        std::uint32_t old_val = doSync(
            sys, i % 4, makeSync(AtomicFunc::FetchAdd, kFlag, 1));
        EXPECT_EQ(old_val, i);
    }
    EXPECT_EQ(sys.debugRead(kFlag), 10u);
}

TEST(GpuProtocol, CompareSwapMutualExclusionAtL2)
{
    System sys(gdConfig());
    std::uint32_t a = doSync(
        sys, 0, makeSync(AtomicFunc::CompareSwap, kFlag, 1, 0));
    std::uint32_t b = doSync(
        sys, 1, makeSync(AtomicFunc::CompareSwap, kFlag, 1, 0));
    EXPECT_EQ(a, 0u); // first wins
    EXPECT_EQ(b, 1u); // second observes the lock taken
}

// ---------------------------------------------------------------------
// Release drain: the dirty-frame index must reproduce a full walk
// ---------------------------------------------------------------------

namespace
{

using Groups = std::vector<std::pair<Addr, WordMask>>;

/** (line, mask) of every L1 writethrough CU 0 sends during @p op. */
template <typename Op>
Groups
writeThroughsDuring(System &sys, Op op)
{
    trace::TraceSink &sink = *sys.trace();
    std::size_t mark = sink.size();
    op();
    Groups out;
    for (std::size_t i = mark; i < sink.size(); ++i) {
        const trace::TraceEvent &ev = sink.event(i);
        if (ev.phase == trace::Phase::L1WriteThrough &&
            ev.node == static_cast<std::int32_t>(sys.l1(0).node())) {
            out.emplace_back(ev.addr, static_cast<WordMask>(ev.aux));
        }
    }
    return out;
}

SystemConfig
traced(SystemConfig config)
{
    config.observability.traceEnabled = true;
    return config;
}

SyncOp
globalRelease()
{
    return makeSync(AtomicFunc::Store, kFlag, 1, 0, Scope::Global,
                    SyncSemantics::Release);
}

} // namespace

TEST(GpuProtocol, HrfReleaseDrainMatchesFullArrayWalk)
{
    System sys(traced(ghConfig()));
    auto &l1 = *as<GpuL1Cache>(sys.l1(0));
    const std::size_t sets = sys.config().geometry.l1Bytes /
                             kLineBytes / sys.config().geometry.l1Assoc;
    const Addr set_stride = sets * kLineBytes;
    auto line_in_set = [&](unsigned set, unsigned tag) {
        return kData + set * kLineBytes + tag * set_stride;
    };

    // Dirty frames in an order unlike array order (sets 10, 3, 7).
    // Set 10's frame is dirtied by a local atomic, then by a store.
    doSync(sys, 0,
           makeSync(AtomicFunc::FetchAdd, line_in_set(10, 0) + 4, 1, 0,
                    Scope::Local));
    doStore(sys, 0, line_in_set(10, 0), 1);
    doStore(sys, 0, line_in_set(3, 0) + 8, 2);
    doStore(sys, 0, line_in_set(7, 0), 3);

    // Set 5: dirty a frame, evict it (flushing it) with a full way's
    // worth of newer dirty lines, then reinstall and re-dirty it.
    doStore(sys, 0, line_in_set(5, 0), 4);
    for (unsigned tag = 1; tag <= sys.config().geometry.l1Assoc; ++tag)
        doStore(sys, 0, line_in_set(5, tag), 5 + tag);
    doStore(sys, 0, line_in_set(5, 0) + 12, 20);
    drainEvents(sys);

    ASSERT_EQ(l1.storeBufferSize(), 0u) << "GH stores bypass the SB";
    EXPECT_TRUE(l1.checkInvariants(false).empty());
    Groups expected = l1.dirtyLines();
    ASSERT_EQ(expected.size(), 3u + sys.config().geometry.l1Assoc);
    Groups sent = writeThroughsDuring(
        sys, [&] { doSync(sys, 0, globalRelease()); });
    EXPECT_EQ(sent, expected);
    EXPECT_TRUE(l1.dirtyLines().empty());

    // A second release sees only what was dirtied since the first.
    doStore(sys, 0, line_in_set(7, 0) + 4, 30);
    doStore(sys, 0, line_in_set(3, 0), 31);
    expected = l1.dirtyLines();
    ASSERT_EQ(expected.size(), 2u);
    sent = writeThroughsDuring(
        sys, [&] { doSync(sys, 0, globalRelease()); });
    EXPECT_EQ(sent, expected);

    // And a release with nothing dirty sends nothing.
    sent = writeThroughsDuring(
        sys, [&] { doSync(sys, 0, globalRelease()); });
    EXPECT_TRUE(sent.empty());
    EXPECT_TRUE(l1.checkInvariants(false).empty());
}

TEST(GpuProtocol, GdReleaseWithNothingDirtyDrainsOnlyTheStoreBuffer)
{
    System sys(traced(gdConfig()));
    auto &l1 = *as<GpuL1Cache>(sys.l1(0));
    for (unsigned i = 0; i < 4; ++i)
        doLoad(sys, 0, kData + i * kLineBytes);
    doStore(sys, 0, kData + 4, 9);
    EXPECT_TRUE(l1.dirtyLines().empty()) << "GD never dirties the L1";
    Groups sent = writeThroughsDuring(
        sys, [&] { doSync(sys, 0, globalRelease()); });
    EXPECT_EQ(sent, (Groups{{kData, WordMask{1u << 1}}}));
    EXPECT_EQ(sys.debugRead(kData + 4), 9u);
}
