/**
 * @file
 * Tests for the CPU package model: execution, PMU accounting and the
 * ground-truth power behaviour the paper's Equation 1 rides on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"
#include "cpu/cpu_core.hh"

#include "../os/stub_thread.hh"

namespace tdp {
namespace {

CpuCore
makeCore(CpuCore::Params p = CpuCore::Params{})
{
    // Zero noise for deterministic assertions.
    p.powerNoiseSigma = 0.0;
    return CpuCore("cpu0", p, Rng(7));
}

ThreadDemand
busyDemand(double uops = 1.0)
{
    ThreadDemand d;
    d.uopsPerCycle = uops;
    d.l3MissPerKuop = 5.0;
    d.writebackFraction = 0.4;
    d.prefetchPerMiss = 0.5;
    d.tlbMissPerMuop = 10.0;
    d.pageHitRate = 0.6;
    return d;
}

CoreQuantumInputs
inputsFor(std::vector<ThreadContext *> threads)
{
    CoreQuantumInputs in;
    in.stallFactors.assign(threads.size(), 1.0);
    in.threads = std::move(threads);
    return in;
}

TEST(CpuCore, IdleIsHaltedAtNearIdlePower)
{
    CpuCore core = makeCore();
    const CoreQuantumOutputs out =
        core.executeQuantum(inputsFor({}), ticksPerMs);
    EXPECT_LT(core.lastActiveFraction(), 0.01);
    EXPECT_NEAR(out.power, 9.25, 0.5);
    EXPECT_DOUBLE_EQ(out.demandFills, 0.0);
}

TEST(CpuCore, CyclesCountedEvenWhenHalted)
{
    CpuCore core = makeCore();
    core.executeQuantum(inputsFor({}), ticksPerMs);
    // 2.8 GHz x 1 ms: the paper's "cycles = frequency x time" metric.
    EXPECT_DOUBLE_EQ(core.counters().count(PerfEvent::Cycles), 2.8e6);
    EXPECT_GT(core.counters().count(PerfEvent::HaltedCycles), 2.7e6);
}

TEST(CpuCore, SingleThreadExecutesItsDemand)
{
    CpuCore core = makeCore();
    StubThread t("t", busyDemand(1.0));
    t.start();
    core.executeQuantum(inputsFor({&t}), ticksPerMs);
    EXPECT_NEAR(t.committedUops, 2.8e6, 1e3);
    EXPECT_NEAR(core.lastActiveFraction(), 1.0, 1e-9);
    // PMU saw the uops (plus kernel work, here zero).
    EXPECT_NEAR(core.counters().count(PerfEvent::FetchedUops), 2.8e6,
                1e3);
}

TEST(CpuCore, PowerFollowsEquationOneShape)
{
    CpuCore core = makeCore();
    StubThread t("t", busyDemand(1.0));
    t.start();
    const CoreQuantumOutputs out =
        core.executeQuantum(inputsFor({&t}), ticksPerMs);
    // 9.25 + 26.45 (active) + 4.31 * 1 uops/cycle.
    EXPECT_NEAR(out.power, 9.25 + 26.45 + 4.31, 0.3);
}

TEST(CpuCore, PowerEqualsPowExpressionWhenFullyAndPartlyAwake)
{
    // A fully occupied core (active == 1) skips the pow() call; a
    // half-occupied one takes it. Both must equal the full expression.
    for (const double duty : {1.0, 0.5}) {
        CpuCore core = makeCore();
        ThreadDemand d = busyDemand(1.0);
        d.dutyCycle = duty;
        StubThread t("t", d);
        t.start();
        const CoreQuantumOutputs out =
            core.executeQuantum(inputsFor({&t}), ticksPerMs);

        const CpuCore::Params p;
        const double active = core.lastActiveFraction();
        EXPECT_EQ(active, duty);
        const double s = core.clock().scale();
        const double v = 0.75 + 0.25 * s;
        const double v2 = v * v;
        // busyDemand() has no clock gating and no speculation, so the
        // gating and speculative terms are 0.
        const double dynamic =
            p.activePower * std::pow(active, 0.90) * (1.0 - 0.0) +
            p.powerPerUopPerCycle * (core.lastUopsPerCycle() + 0.0);
        const double expected = p.haltedPower * v2 + dynamic * s * v2;
        EXPECT_EQ(out.power, expected) << "duty " << duty;
    }
}

TEST(CpuCore, FetchWidthCapsTwoThreads)
{
    CpuCore core = makeCore();
    StubThread a("a", busyDemand(2.5)), b("b", busyDemand(2.5));
    a.start();
    b.start();
    core.executeQuantum(inputsFor({&a, &b}), ticksPerMs);
    const double total_uops =
        core.counters().count(PerfEvent::FetchedUops);
    EXPECT_LE(total_uops, 3.0 * 2.8e6 * 1.001);
    // Fair split under the cap.
    EXPECT_NEAR(a.committedUops, b.committedUops, 1.0);
}

TEST(CpuCore, SmtEfficiencyReducesPerThreadRate)
{
    CpuCore core1 = makeCore(), core2 = makeCore();
    StubThread solo("solo", busyDemand(1.0));
    StubThread a("a", busyDemand(1.0)), b("b", busyDemand(1.0));
    solo.start();
    a.start();
    b.start();
    core1.executeQuantum(inputsFor({&solo}), ticksPerMs);
    core2.executeQuantum(inputsFor({&a, &b}), ticksPerMs);
    EXPECT_LT(a.committedUops, solo.committedUops);
    EXPECT_NEAR(a.committedUops, solo.committedUops * 0.92, 1e3);
}

TEST(CpuCore, BusThrottleSlowsMemoryBoundThreads)
{
    CpuCore core1 = makeCore(), core2 = makeCore();
    ThreadDemand d = busyDemand(1.0);
    d.memBoundness = 1.0;
    StubThread free_t("f", d), cong_t("c", d);
    free_t.start();
    cong_t.start();
    CoreQuantumInputs free_in = inputsFor({&free_t});
    CoreQuantumInputs cong_in = inputsFor({&cong_t});
    cong_in.busThrottle = 0.5;
    core1.executeQuantum(free_in, ticksPerMs);
    core2.executeQuantum(cong_in, ticksPerMs);
    EXPECT_NEAR(cong_t.committedUops, free_t.committedUops * 0.5, 1e3);
}

TEST(CpuCore, SpeculationPowerInvisibleToCounters)
{
    CpuCore plain = makeCore(), spec = makeCore();
    ThreadDemand d = busyDemand(0.3);
    StubThread a("a", d);
    d.specUopsEquiv = 1.0;
    StubThread b("b", d);
    a.start();
    b.start();
    const auto out_plain =
        plain.executeQuantum(inputsFor({&a}), ticksPerMs);
    const auto out_spec =
        spec.executeQuantum(inputsFor({&b}), ticksPerMs);
    // Same fetched uops...
    EXPECT_NEAR(plain.counters().count(PerfEvent::FetchedUops),
                spec.counters().count(PerfEvent::FetchedUops), 1.0);
    // ...but ~4.31 W more power: the mcf underestimation mechanism.
    EXPECT_NEAR(out_spec.power - out_plain.power, 4.31, 0.1);
}

TEST(CpuCore, ClockGatingReducesPowerNotHaltedCycles)
{
    CpuCore plain = makeCore(), gated = makeCore();
    ThreadDemand d = busyDemand(0.3);
    StubThread a("a", d);
    d.clockGatingFactor = 0.2;
    StubThread b("b", d);
    a.start();
    b.start();
    const auto out_plain =
        plain.executeQuantum(inputsFor({&a}), ticksPerMs);
    const auto out_gated =
        gated.executeQuantum(inputsFor({&b}), ticksPerMs);
    EXPECT_LT(out_gated.power, out_plain.power - 3.0);
    EXPECT_NEAR(plain.counters().count(PerfEvent::HaltedCycles),
                gated.counters().count(PerfEvent::HaltedCycles), 1.0);
}

TEST(CpuCore, DutyCycleDrivesHaltedFraction)
{
    CpuCore core = makeCore();
    ThreadDemand d = busyDemand(1.0);
    d.dutyCycle = 0.25;
    StubThread t("t", d);
    t.start();
    core.executeQuantum(inputsFor({&t}), ticksPerMs);
    EXPECT_NEAR(core.lastActiveFraction(), 0.25, 0.02);
    EXPECT_NEAR(core.counters().count(PerfEvent::HaltedCycles),
                2.8e6 * 0.75, 2.8e6 * 0.03);
}

TEST(CpuCore, BusTransactionAccounting)
{
    CpuCore core = makeCore();
    StubThread t("t", busyDemand(1.0));
    t.start();
    CoreQuantumInputs in = inputsFor({&t});
    in.dmaSnoopShare = 500.0;
    const auto out = core.executeQuantum(in, ticksPerMs);
    const double own = out.demandFills + out.writebacks +
                       out.prefetches + out.uncacheable;
    EXPECT_NEAR(core.counters().count(PerfEvent::BusTransactions),
                own + 500.0, 1e-6);
    EXPECT_DOUBLE_EQ(
        core.counters().count(PerfEvent::DmaOtherAccesses), 500.0);
}

TEST(CpuCore, PageWalksAddFills)
{
    CpuCore with_tlb = makeCore(), without = makeCore();
    ThreadDemand d = busyDemand(1.0);
    d.tlbMissPerMuop = 0.0;
    StubThread a("a", d);
    d.tlbMissPerMuop = 100.0;
    StubThread b("b", d);
    a.start();
    b.start();
    const auto out_no = without.executeQuantum(inputsFor({&a}),
                                               ticksPerMs);
    const auto out_tlb =
        with_tlb.executeQuantum(inputsFor({&b}), ticksPerMs);
    EXPECT_GT(out_tlb.demandFills, out_no.demandFills);
    EXPECT_GT(with_tlb.counters().count(PerfEvent::TlbMisses), 0.0);
}

TEST(CpuCore, DvfsScalesCyclesAndPower)
{
    CpuCore fast = makeCore(), slow = makeCore();
    slow.clock().setFrequency(1.4e9);
    StubThread a("a", busyDemand(1.0)), b("b", busyDemand(1.0));
    a.start();
    b.start();
    const auto out_fast = fast.executeQuantum(inputsFor({&a}),
                                              ticksPerMs);
    const auto out_slow = slow.executeQuantum(inputsFor({&b}),
                                              ticksPerMs);
    EXPECT_DOUBLE_EQ(slow.counters().count(PerfEvent::Cycles), 1.4e6);
    EXPECT_LT(out_slow.power, out_fast.power);
    EXPECT_LT(b.committedUops, a.committedUops);
}

TEST(CpuCore, InterruptsWakeIdleCore)
{
    CpuCore core = makeCore();
    CoreQuantumInputs in = inputsFor({});
    in.interrupts = 1.0;
    core.executeQuantum(in, ticksPerMs);
    EXPECT_GT(core.lastActiveFraction(), 0.004);
    EXPECT_DOUBLE_EQ(
        core.counters().count(PerfEvent::InterruptsServiced), 1.0);
}

TEST(CpuCore, MismatchedStallFactorsPanic)
{
    CpuCore core = makeCore();
    StubThread t("t", busyDemand(1.0));
    t.start();
    CoreQuantumInputs in;
    in.threads = {&t};
    // stallFactors left empty.
    EXPECT_THROW(core.executeQuantum(in, ticksPerMs), PanicError);
}

/** Property sweep: power is monotone in fetch rate. */
class CorePowerSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(CorePowerSweep, PowerMonotoneInUops)
{
    const double uops = GetParam();
    CpuCore lo = makeCore(), hi = makeCore();
    StubThread a("a", busyDemand(uops)), b("b", busyDemand(uops + 0.2));
    a.start();
    b.start();
    const auto out_lo = lo.executeQuantum(inputsFor({&a}), ticksPerMs);
    const auto out_hi = hi.executeQuantum(inputsFor({&b}), ticksPerMs);
    EXPECT_GT(out_hi.power, out_lo.power);
}

INSTANTIATE_TEST_SUITE_P(Rates, CorePowerSweep,
                         ::testing::Values(0.1, 0.5, 1.0, 1.8, 2.5));

} // namespace
} // namespace tdp
