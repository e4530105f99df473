/**
 * @file
 * Server-level fault-injection tests: the full pipeline under each
 * fault class, zero-plan bit-identity, per-seed determinism and the
 * aligner's recovery accounting.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "platform/server.hh"

namespace tdp {
namespace {

SampleTrace
runFaulted(uint64_t seed, const FaultPlan &plan, Seconds duration,
           const std::string &workload = "gcc")
{
    Server::Params params;
    params.rig.faults = plan;
    Server server(seed, params);
    if (!workload.empty())
        server.runner().launchStaggered(workload, 2, 0.5, 0.0);
    server.run(duration);
    return server.rig().collect();
}

bool
tracesIdentical(const SampleTrace &a, const SampleTrace &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const AlignedSample sa = a.row(i);
        const AlignedSample sb = b.row(i);
        if (sa.time != sb.time || sa.interval != sb.interval)
            return false;
        for (int r = 0; r < numRails; ++r) {
            if (sa.measuredWatts[static_cast<size_t>(r)] !=
                sb.measuredWatts[static_cast<size_t>(r)])
                return false;
        }
        if (sa.perCpu.size() != sb.perCpu.size())
            return false;
        for (size_t c = 0; c < sa.perCpu.size(); ++c) {
            for (int e = 0; e < numPerfEvents; ++e) {
                const double va = sa.perCpu[c].counts[
                    static_cast<size_t>(e)];
                const double vb = sb.perCpu[c].counts[
                    static_cast<size_t>(e)];
                if (va != vb && !(std::isnan(va) && std::isnan(vb)))
                    return false;
            }
        }
    }
    return true;
}

TEST(FaultServer, DisabledPlanIsBitIdenticalToNoPlan)
{
    // The whole tentpole contract: Params with a default FaultPlan
    // must produce byte-identical traces to the pre-fault pipeline.
    Server plain(123);
    plain.runner().launchStaggered("gcc", 2, 0.5, 0.0);
    plain.run(12.0);
    const SampleTrace &baseline = plain.rig().collect();

    const SampleTrace gated = runFaulted(123, FaultPlan{}, 12.0);
    EXPECT_TRUE(tracesIdentical(baseline, gated));

    Server::Params params;
    params.rig.faults = FaultPlan{};
    Server gated_server(123, params);
    EXPECT_EQ(gated_server.rig().faults(), nullptr);
}

TEST(FaultServer, ScaledZeroIntensityIsBitIdenticalToNoPlan)
{
    Server plain(321);
    plain.runner().launchStaggered("mcf", 2, 0.5, 0.0);
    plain.run(10.0);
    const SampleTrace &baseline = plain.rig().collect();
    const SampleTrace zero = runFaulted(
        321, FaultPlan::allFaults().scaled(0.0), 10.0, "mcf");
    EXPECT_TRUE(tracesIdentical(baseline, zero));
}

TEST(FaultServer, DeterministicForSameSeedAndPlan)
{
    const FaultPlan plan = FaultPlan::allFaults();
    const SampleTrace a = runFaulted(55, plan, 15.0);
    const SampleTrace b = runFaulted(55, plan, 15.0);
    EXPECT_TRUE(tracesIdentical(a, b));
}

TEST(FaultServer, EveryFaultClassCompletesARun)
{
    std::vector<FaultPlan> plans(7);
    plans[0].counterWidthBits = 33;
    plans[1].dropReadingProb = 0.2;
    plans[2].missPulseProb = 0.2;
    plans[3].duplicatePulseProb = 0.2;
    plans[4].pulseLatencyMax = 5e-3;
    plans[5].dropBlockProb = 0.1;
    plans[6].glitchBlockProb = 0.1;
    FaultPlan masked;
    masked.unavailableEvents = {PerfEvent::BusTransactions};
    plans.push_back(masked);

    for (size_t i = 0; i < plans.size(); ++i) {
        SCOPED_TRACE(i);
        const SampleTrace trace =
            runFaulted(1000 + i, plans[i], 20.0);
        EXPECT_GT(trace.size(), 10u);
    }
}

TEST(FaultServer, CounterWrapRecoveryKeepsRatesSane)
{
    // 33-bit counters (span 2^33 ~ 8.6e9) wrap every ~3 s of 2.8 GHz
    // cycle accumulation while the 1 s deltas stay below the span, so
    // the driver-side reconstruction is exact and the recovered cycle
    // deltas must still track the 1 s interval.
    FaultPlan plan;
    plan.counterWidthBits = 33;
    Server::Params params;
    params.rig.faults = plan;
    Server server(77, params);
    server.run(15.0);
    const SampleTrace &trace = server.rig().collect();
    ASSERT_GT(trace.size(), 5u);
    for (const AlignedSample &s : trace.rows()) {
        for (const CounterSnapshot &snap : s.perCpu) {
            EXPECT_NEAR(snap[PerfEvent::Cycles] / (2.8e9 * s.interval),
                        1.0, 0.02);
        }
    }
    EXPECT_GT(server.rig().faults()->stats().counterWraps, 0u);
}

TEST(FaultServer, MissedPulsesAreResynchronised)
{
    FaultPlan plan;
    plan.missPulseProb = 0.2;
    Server::Params params;
    params.rig.faults = plan;
    Server server(88, params);
    server.runner().launchStaggered("gcc", 2, 0.5, 0.0);
    server.run(60.0);
    const SampleTrace &trace = server.rig().collect();
    const TraceAligner &aligner = server.rig().aligner();
    const auto &stats = server.rig().faults()->stats();
    ASSERT_GT(stats.pulsesMissed, 0u);
    // Each missed pulse strands one reading (no matching window) and
    // stretches the following window across two intervals; the
    // aligner must account for them all, except a miss at the very
    // end of the run whose leftover is still queued.
    EXPECT_GT(aligner.orphanReadings(), 0u);
    EXPECT_LE(aligner.orphanReadings(), stats.pulsesMissed);
    EXPECT_GE(aligner.orphanReadings() + 2, stats.pulsesMissed);
    EXPECT_GT(aligner.resyncedWindows(), 0u);
    EXPECT_GT(trace.size(), 30u);
    // Resynchronisation keeps intervals nominal: the stretched
    // window's power is clamped to the reading's own 1 s span.
    for (const AlignedSample &s : trace.rows())
        EXPECT_NEAR(s.interval, 1.0, 0.01);
}

TEST(FaultServer, DroppedReadingsBecomeOrphanWindows)
{
    FaultPlan plan;
    plan.dropReadingProb = 0.2;
    Server::Params params;
    params.rig.faults = plan;
    Server server(99, params);
    server.run(60.0);
    server.rig().collect();
    const TraceAligner &aligner = server.rig().aligner();
    const auto &stats = server.rig().faults()->stats();
    ASSERT_GT(stats.readingsDropped, 0u);
    EXPECT_GT(aligner.orphanWindows(), 0u);
    EXPECT_LE(aligner.orphanWindows(), stats.readingsDropped);
    EXPECT_GE(aligner.orphanWindows() + 2, stats.readingsDropped);
}

TEST(FaultServer, DuplicatePulsesAreMerged)
{
    FaultPlan plan;
    plan.duplicatePulseProb = 0.2;
    Server::Params params;
    params.rig.faults = plan;
    Server server(111, params);
    server.run(60.0);
    const SampleTrace &trace = server.rig().collect();
    const TraceAligner &aligner = server.rig().aligner();
    const auto &stats = server.rig().faults()->stats();
    ASSERT_GT(stats.pulsesDuplicated, 0u);
    EXPECT_EQ(aligner.duplicatePulses(), stats.pulsesDuplicated);
    // Merging the spurious edges keeps one sample per second.
    EXPECT_GT(trace.size(), 55u);
    for (const AlignedSample &s : trace.rows())
        EXPECT_NEAR(s.interval, 1.0, 0.01);
}

TEST(FaultServer, GlitchedBlocksAreExcludedFromWindowAverages)
{
    FaultPlan plan;
    plan.glitchBlockProb = 0.05;
    plan.glitchSpikeWatts = 5000.0;
    Server::Params params;
    params.rig.faults = plan;
    Server server(222, params);
    server.run(30.0);
    const SampleTrace &trace = server.rig().collect();
    const TraceAligner &aligner = server.rig().aligner();
    ASSERT_GT(server.rig().faults()->stats().blocksGlitched, 0u);
    // Non-finite glitches are excluded per rail; the finite 5 kW
    // spikes remain (one glitched 0.1 ms block in a 1 s window moves
    // the average by < 1 W at these rates, still far from idle +
    // 5 kW). No rail average may be non-finite or absurd.
    EXPECT_GT(aligner.glitchValuesDiscarded(), 0u);
    for (const AlignedSample &s : trace.rows()) {
        for (int r = 0; r < numRails; ++r) {
            const double w = s.measuredWatts[static_cast<size_t>(r)];
            EXPECT_TRUE(std::isfinite(w));
            EXPECT_LT(std::fabs(w), 200.0);
        }
    }
}

} // namespace
} // namespace tdp
