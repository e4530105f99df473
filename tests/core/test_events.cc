/**
 * @file
 * Tests for the event-vector derivation.
 */

#include <gtest/gtest.h>

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
    EXPECT_NEAR(rates.total(4, &CpuEventRates::uopsPerCycle), 2.0, 1e-12);
    for (size_t i = 0; i < trace.size(); ++i) {
        const EventVector ev = EventVector::fromSample(trace.row(i));
        for (auto field : {&CpuEventRates::uopsPerCycle,
                           &CpuEventRates::busTxPerMcycle}) {
            EXPECT_EQ(rates.total(i, field), ev.total(field));
            EXPECT_EQ(rates.total(i, field, true),
                      ev.totalSquared(field));
        }
    }
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
    EXPECT_GT(rates.total(1, &CpuEventRates::percentActive), 0.0);
    try {
        rates.total(2, &CpuEventRates::percentActive);
        FAIL() << "sample 2 has a CPU with no cycles";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("zero cycles on cpu 1"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace tdp
