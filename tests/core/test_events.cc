/**
 * @file
 * Tests for the event-vector derivation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "core/events.hh"

#include "synthetic_trace.hh"

namespace tdp {
namespace {

TEST(EventVector, DerivesRatesFromCounters)
{
    SyntheticPoint pt;
    pt.activeFraction = 0.75;
    pt.uopsPerCycle = 1.5;
    pt.l3MissesPerCycle = 0.004;
    pt.busTxPerCycle = 0.012;
    const AlignedSample s = makeSyntheticSample(pt, {});
    const EventVector ev = EventVector::fromSample(s);
    ASSERT_EQ(ev.cpu.size(), 4u);
    EXPECT_NEAR(ev.cpu[0].percentActive, 0.75, 1e-12);
    EXPECT_NEAR(ev.cpu[0].uopsPerCycle, 1.5, 1e-12);
    EXPECT_NEAR(ev.cpu[0].l3MissesPerCycle, 0.004, 1e-12);
    EXPECT_NEAR(ev.cpu[0].busTxPerMcycle, 0.012 * 1e6, 1e-6);
}

TEST(EventVector, InterruptSharesSplitAcrossCpus)
{
    SyntheticPoint pt;
    pt.diskIrqPerSecond = 800.0;
    pt.deviceIrqPerSecond = 1200.0;
    const AlignedSample s = makeSyntheticSample(pt, {});
    const EventVector ev = EventVector::fromSample(s);
    // 800 interrupts over 4 CPUs at 2.8e9 cycles each.
    EXPECT_NEAR(ev.cpu[0].diskInterruptsPerCycle, 200.0 / 2.8e9,
                1e-15);
    // Totals reconstruct the system-wide rate.
    EXPECT_NEAR(ev.total(&CpuEventRates::diskInterruptsPerCycle) *
                    2.8e9,
                800.0, 1e-6);
}

TEST(EventVector, TotalsAndSquares)
{
    SyntheticPoint pt;
    pt.uopsPerCycle = 2.0;
    const AlignedSample s = makeSyntheticSample(pt, {}, 4);
    const EventVector ev = EventVector::fromSample(s);
    EXPECT_NEAR(ev.total(&CpuEventRates::uopsPerCycle), 8.0, 1e-12);
    EXPECT_NEAR(ev.totalSquared(&CpuEventRates::uopsPerCycle), 16.0,
                1e-12);
}

TEST(EventVector, ZeroCyclesFatal)
{
    AlignedSample s = makeSyntheticSample(SyntheticPoint{}, {});
    s.perCpu[0][PerfEvent::Cycles] = 0.0;
    EXPECT_THROW(EventVector::fromSample(s), FatalError);
}

TEST(EventVector, NoCpusFatal)
{
    AlignedSample s;
    s.interval = 1.0;
    EXPECT_THROW(EventVector::fromSample(s), FatalError);
}

TEST(EventVector, TraceConversion)
{
    // A trace's rate table sums each sample's per-CPU rates exactly
    // as the sample's own event vector does.
    const SampleTrace trace = sweepTrace(5, [](double u, int i) {
        SyntheticPoint pt;
        pt.uopsPerCycle = u;
        pt.busTxPerCycle = 0.01 + 0.003 * i;
        return makeSyntheticSample(pt, {}, 2, i);
    });
    const TraceRates rates(trace);
    ASSERT_EQ(rates.size(), 5u);
    ASSERT_EQ(rates.derived(), 5u);
    EXPECT_NEAR(rates.totals(&CpuEventRates::uopsPerCycle)[4], 2.0, 1e-12);
    for (size_t i = 0; i < trace.size(); ++i) {
        const EventVector ev = EventVector::fromSample(trace.row(i));
        for (auto field : {&CpuEventRates::uopsPerCycle,
                           &CpuEventRates::busTxPerMcycle}) {
            EXPECT_EQ(rates.totals(field)[i], ev.total(field));
            EXPECT_EQ(rates.totals(field, true)[i],
                      ev.totalSquared(field));
        }
    }
}

TEST(EventVector, TraceRatesMatchEveryFieldAndMask)
{
    // Every field's totals and every sample's non-finite mask equal
    // the event vector's, on a clean trace (the all-finite shortcut)
    // and with NaN-masked events and an overflowing rate.
    const auto sample = [](double u, int i) {
        SyntheticPoint pt;
        pt.uopsPerCycle = u;
        pt.dmaPerCycle = 1e-4 * i;
        pt.diskIrqPerSecond = 100.0 * i;
        AlignedSample s = makeSyntheticSample(pt, {}, 3, i);
        s.perCpu[1][PerfEvent::FetchedUops] += i;
        return s;
    };
    const SampleTrace clean = sweepTrace(6, sample);
    const SampleTrace faulty = sweepTrace(6, [&](double u, int i) {
        AlignedSample s = sample(u, i);
        if (i == 1)
            s.perCpu[2][PerfEvent::TlbMisses] = std::nan("");
        if (i == 3) {
            s.perCpu[0][PerfEvent::Cycles] = 1e-3;
            s.perCpu[0][PerfEvent::PrefetchTransactions] = 1e306;
        }
        if (i == 4)
            s.osDeviceInterrupts = std::nan("");
        return s;
    });
    const std::vector<double CpuEventRates::*> fields = {
        &CpuEventRates::cycles,
        &CpuEventRates::percentActive,
        &CpuEventRates::uopsPerCycle,
        &CpuEventRates::l3MissesPerCycle,
        &CpuEventRates::tlbMissesPerCycle,
        &CpuEventRates::busTxPerMcycle,
        &CpuEventRates::dmaPerCycle,
        &CpuEventRates::uncacheablePerCycle,
        &CpuEventRates::interruptsPerCycle,
        &CpuEventRates::prefetchPerMcycle,
        &CpuEventRates::diskInterruptsPerCycle,
        &CpuEventRates::deviceInterruptsPerCycle};
    uint32_t seen = 0;
    for (const SampleTrace *trace : {&clean, &faulty}) {
        const TraceRates rates(*trace);
        for (size_t i = 0; i < trace->size(); ++i) {
            const EventVector ev = EventVector::fromSample(trace->row(i));
            for (auto field : fields) {
                const double want = ev.total(field);
                const double got = rates.totals(field)[i];
                EXPECT_TRUE(got == want ||
                            (std::isnan(got) && std::isnan(want)))
                    << "sample " << i << ": " << got << " vs " << want;
                const double want_sq = ev.totalSquared(field);
                const double got_sq = rates.totals(field, true)[i];
                EXPECT_TRUE(got_sq == want_sq ||
                            (std::isnan(got_sq) && std::isnan(want_sq)));
            }
            EXPECT_EQ(rates.nonFiniteMask(i), ev.nonFiniteMask())
                << "sample " << i;
            seen |= ev.nonFiniteMask();
        }
    }
    EXPECT_EQ(rateFieldNames(seen),
              "tlbMissesPerCycle, prefetchPerMcycle, "
              "deviceInterruptsPerCycle");
}

TEST(EventVector, TraceRatesFailAtTheZeroCycleSample)
{
    // A zero-cycle sample fails the fit that reads it, with the event
    // vector's message; the samples before it still read.
    SampleTrace trace;
    for (int i = 0; i < 4; ++i) {
        AlignedSample s = makeSyntheticSample(SyntheticPoint{}, {}, 2, i);
        if (i == 2)
            s.perCpu[1][PerfEvent::Cycles] = 0.0;
        trace.add(s);
    }
    const TraceRates rates(trace);
    ASSERT_EQ(rates.derived(), 2u);
    EXPECT_GT(rates.totals(&CpuEventRates::percentActive)[1], 0.0);
    try {
        rates.requireDerived();
        FAIL() << "sample 2 has a CPU with no cycles";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("zero cycles on cpu 1"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace tdp
