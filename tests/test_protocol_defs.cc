/**
 * @file
 * Unit tests for protocol vocabulary: atomic semantics, configuration
 * naming/scoping, fence policy, energy model, and feature tables.
 */

#include <gtest/gtest.h>

#include "coherence/protocol.hh"
#include "consistency/fence_policy.hh"
#include "core/features.hh"
#include "energy/energy_model.hh"

using namespace nosync;

TEST(AtomicFuncs, Load)
{
    SyncOp op;
    op.func = AtomicFunc::Load;
    AtomicResult r = applyAtomic(op, 5);
    EXPECT_EQ(r.returned, 5u);
    EXPECT_EQ(r.newValue, 5u);
    EXPECT_FALSE(r.stored);
}

TEST(AtomicFuncs, Store)
{
    SyncOp op;
    op.func = AtomicFunc::Store;
    op.operand = 9;
    AtomicResult r = applyAtomic(op, 5);
    EXPECT_EQ(r.newValue, 9u);
    EXPECT_TRUE(r.stored);
}

TEST(AtomicFuncs, FetchAddReturnsOld)
{
    SyncOp op;
    op.func = AtomicFunc::FetchAdd;
    op.operand = 3;
    AtomicResult r = applyAtomic(op, 5);
    EXPECT_EQ(r.returned, 5u);
    EXPECT_EQ(r.newValue, 8u);
}

TEST(AtomicFuncs, Exchange)
{
    SyncOp op;
    op.func = AtomicFunc::Exchange;
    op.operand = 1;
    AtomicResult r = applyAtomic(op, 0);
    EXPECT_EQ(r.returned, 0u);
    EXPECT_EQ(r.newValue, 1u);
}

TEST(AtomicFuncs, CompareSwapSuccessAndFailure)
{
    SyncOp op;
    op.func = AtomicFunc::CompareSwap;
    op.compare = 0;
    op.operand = 1;
    AtomicResult ok = applyAtomic(op, 0);
    EXPECT_TRUE(ok.stored);
    EXPECT_EQ(ok.newValue, 1u);
    EXPECT_EQ(ok.returned, 0u);
    AtomicResult fail = applyAtomic(op, 7);
    EXPECT_FALSE(fail.stored);
    EXPECT_EQ(fail.newValue, 7u);
    EXPECT_EQ(fail.returned, 7u);
}

TEST(SyncOpSemantics, AcquireReleaseFlags)
{
    SyncOp op;
    op.sem = SyncSemantics::Acquire;
    EXPECT_TRUE(op.isAcquire());
    EXPECT_FALSE(op.isRelease());
    op.sem = SyncSemantics::Release;
    EXPECT_FALSE(op.isAcquire());
    EXPECT_TRUE(op.isRelease());
    op.sem = SyncSemantics::AcquireRelease;
    EXPECT_TRUE(op.isAcquire());
    EXPECT_TRUE(op.isRelease());
}

TEST(ProtocolConfig, ShortNames)
{
    EXPECT_EQ(ProtocolConfig::gd().shortName(), "GD");
    EXPECT_EQ(ProtocolConfig::gh().shortName(), "GH");
    EXPECT_EQ(ProtocolConfig::dd().shortName(), "DD");
    EXPECT_EQ(ProtocolConfig::ddro().shortName(), "DD+RO");
    EXPECT_EQ(ProtocolConfig::dh().shortName(), "DH");
    EXPECT_EQ(ProtocolConfig::ddse().shortName(), "DD+SE");
    EXPECT_EQ(ProtocolConfig::ddpr().shortName(), "DD+PR");
}

TEST(ProtocolConfig, DdprImpliesReadOnlyRegions)
{
    ProtocolConfig ddpr = ProtocolConfig::ddpr();
    EXPECT_TRUE(ddpr.perRegionPolicy);
    EXPECT_TRUE(ddpr.readOnlyRegions);
    EXPECT_FALSE(ProtocolConfig::ddro().perRegionPolicy);
    EXPECT_FALSE(ProtocolConfig::dd().perRegionPolicy);
}

TEST(ProtocolConfig, DrfIgnoresScopeAnnotations)
{
    EXPECT_EQ(ProtocolConfig::dd().effectiveScope(Scope::Local),
              Scope::Global);
    EXPECT_EQ(ProtocolConfig::gh().effectiveScope(Scope::Local),
              Scope::Local);
    EXPECT_EQ(ProtocolConfig::dh().effectiveScope(Scope::Global),
              Scope::Global);
}

TEST(FencePolicy, GpuDrfGlobalSyncDrainsAndInvalidates)
{
    SyncOp op;
    op.sem = SyncSemantics::AcquireRelease;
    op.scope = Scope::Local; // annotation ignored under DRF
    FenceActions a = fenceActionsFor(op, ProtocolConfig::gd());
    EXPECT_TRUE(a.drainBefore);
    EXPECT_TRUE(a.invalidateAfter);
    EXPECT_FALSE(a.mayExecuteLocally);
}

TEST(FencePolicy, HrfLocalSyncSkipsFences)
{
    SyncOp op;
    op.sem = SyncSemantics::AcquireRelease;
    op.scope = Scope::Local;
    FenceActions a = fenceActionsFor(op, ProtocolConfig::gh());
    EXPECT_FALSE(a.drainBefore);
    EXPECT_FALSE(a.invalidateAfter);
    EXPECT_TRUE(a.mayExecuteLocally);
}

TEST(FencePolicy, DenovoExecutesLocally)
{
    SyncOp op;
    op.sem = SyncSemantics::Acquire;
    op.scope = Scope::Global;
    FenceActions a = fenceActionsFor(op, ProtocolConfig::dd());
    EXPECT_TRUE(a.mayExecuteLocally);
    EXPECT_TRUE(a.invalidateAfter);
    EXPECT_FALSE(a.drainBefore); // pure acquire
}

TEST(FencePolicy, DenovoSyncEngineExecutesGlobalSyncAtTheL2)
{
    SyncOp op;
    op.sem = SyncSemantics::AcquireRelease;
    op.scope = Scope::Global;
    FenceActions a = fenceActionsFor(op, ProtocolConfig::ddse());
    EXPECT_FALSE(a.mayExecuteLocally);
    EXPECT_TRUE(a.drainBefore);
    EXPECT_TRUE(a.invalidateAfter);

    op.scope = Scope::Local; // DRF: still global, still at the L2
    EXPECT_FALSE(fenceActionsFor(op, ProtocolConfig::ddse())
                     .mayExecuteLocally);
}

TEST(EnergyModel, ComponentsAccumulate)
{
    stats::StatSet stats;
    EnergyParams params;
    EnergyModel energy(stats, params);
    energy.l1Access(2);
    energy.l2Access();
    energy.flitCrossings(10);
    EXPECT_DOUBLE_EQ(energy.component(EnergyComponent::L1D),
                     2 * params.l1Access);
    EXPECT_DOUBLE_EQ(energy.component(EnergyComponent::L2),
                     params.l2Access);
    EXPECT_DOUBLE_EQ(energy.component(EnergyComponent::Network),
                     10 * params.flitHop);
    EXPECT_DOUBLE_EQ(energy.total(), 2 * params.l1Access +
                                         params.l2Access +
                                         10 * params.flitHop);
}

TEST(Features, Table2ShapesMatchPaper)
{
    using S = FeatureSet::Support;
    FeatureSet gd = featuresOf(ProtocolConfig::gd());
    EXPECT_EQ(gd.reuseWrittenData, S::No);
    EXPECT_EQ(gd.noInvalidationsAcks, S::Yes);
    EXPECT_EQ(gd.dynamicSharing, S::No);

    FeatureSet gh = featuresOf(ProtocolConfig::gh());
    EXPECT_EQ(gh.reuseWrittenData, S::IfLocalScope);
    EXPECT_EQ(gh.dynamicSharing, S::No);

    FeatureSet dd = featuresOf(ProtocolConfig::dd());
    EXPECT_EQ(dd.reuseWrittenData, S::Yes);
    EXPECT_EQ(dd.reuseValidData, S::No);
    EXPECT_EQ(dd.decoupledGranularity, S::Yes);
    EXPECT_EQ(dd.dynamicSharing, S::Yes);

    FeatureSet ddro = featuresOf(ProtocolConfig::ddro());
    EXPECT_EQ(ddro.reuseValidData, S::IfLocalScope);

    FeatureSet dh = featuresOf(ProtocolConfig::dh());
    EXPECT_EQ(dh.reuseValidData, S::IfLocalScope);
    EXPECT_EQ(dh.reuseSynchronization, S::Yes);
}

TEST(Features, Table1HasThreeProtocolClasses)
{
    auto rows = protocolClassification();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].category, "Conv HW");
    EXPECT_EQ(rows[1].invalidationInitiator, "reader");
    EXPECT_EQ(rows[2].upToDateTracking, "ownership");
}

TEST(Features, Table5IncludesThisWork)
{
    auto rows = relatedWorkComparison();
    EXPECT_EQ(rows.back().scheme, "DD (this work)");
    EXPECT_EQ(rows.back().features.dynamicSharing,
              FeatureSet::Support::Yes);
}
