/**
 * @file
 * Golden digests of short simulated runs.
 *
 * The simulator promises bit-for-bit reproducible output for a given
 * seed. These runs pin that output: any change to a floating-point
 * operation, its operand order or an RNG draw anywhere in the
 * per-quantum path changes the collected trace and fails here. The
 * first three runs cover a partly awake idle machine, fully occupied
 * cores (gcc x8) and the page-cache, sync, disk and interrupt paths
 * (diskload x8). The fourth repeats diskload x8 with every
 * measurement fault enabled, so the sampler's and DAQ's fault draws,
 * the delayed and duplicated sync pulses and the aligner's recovery
 * paths are pinned too.
 *
 * The digest is FNV-1a over a canonical walk of the samples, not over
 * any on-disk bytes: per sample, the time, the interval, the three
 * interrupt deltas and the five rail watts, then each CPU's ten
 * counters, every value as its raw 64-bit pattern. A change to how a
 * trace is stored or serialised therefore leaves these constants
 * alone.
 *
 * A deliberate model change re-baselines the constants below; a
 * refactor or speed-up must leave them alone.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/hash.hh"
#include "fault/fault_plan.hh"
#include "platform/server.hh"

namespace tdp {
namespace {

constexpr uint64_t goldenSeed = 0x60D1;
constexpr Seconds goldenSeconds = 20.0;

/** FNV-1a over the sample-by-sample canonical walk of @p trace. */
uint64_t
canonicalDigest(const SampleTrace &trace)
{
    uint64_t digest = fnv1aBasis;
    auto mix = [&digest](double value) {
        digest = fnv1a64(&value, sizeof(value), digest);
    };
    for (size_t i = 0; i < trace.size(); ++i) {
        const AlignedSample s = trace.row(i);
        mix(s.time);
        mix(s.interval);
        mix(s.osInterruptsTotal);
        mix(s.osDiskInterrupts);
        mix(s.osDeviceInterrupts);
        for (const double watts : s.measuredWatts)
            mix(watts);
        for (const CounterSnapshot &snap : s.perCpu)
            for (const double count : snap.counts)
                mix(count);
    }
    return digest;
}

struct GoldenRun
{
    const char *workload;
    uint64_t traceDigest;
    uint64_t quanta;
    uint64_t events;
    bool faults = false;
};

void
expectGolden(const GoldenRun &golden)
{
    Server::Params params;
    if (golden.faults)
        params.rig.faults = FaultPlan::allFaults();
    Server server(goldenSeed, params);
    const std::string workload = golden.workload;
    if (workload != "idle")
        server.runner().launchStaggered(workload, 8, 0.5, 0.0);
    const SampleTrace &trace = server.runAndCollect(goldenSeconds);

    const uint64_t digest = canonicalDigest(trace);

    EXPECT_EQ(digest, golden.traceDigest)
        << workload << (golden.faults ? " (faults)" : "")
        << ": sample digest 0x" << std::hex << digest;
    EXPECT_EQ(server.system().quantaExecuted(), golden.quanta)
        << workload;
    EXPECT_EQ(server.system().events().processedCount(), golden.events)
        << workload;
    if (golden.faults) {
        // The run reaches the aligner's recovery paths.
        const TraceAligner &aligner = server.rig().aligner();
        EXPECT_GT(aligner.duplicatePulses(), 0u);
        EXPECT_GT(aligner.resyncedWindows(), 0u);
        EXPECT_GT(aligner.orphanReadings(), 0u);
        EXPECT_GT(aligner.glitchValuesDiscarded(), 0u);
    }
}

TEST(ServerGolden, IdleTraceIsBitIdentical)
{
    expectGolden({"idle", 0xd79b61ea4e01d19cull, 20000, 20});
}

TEST(ServerGolden, FullyOccupiedGccTraceIsBitIdentical)
{
    expectGolden({"gcc", 0xe332d7d7da93978dull, 20000, 28});
}

TEST(ServerGolden, DiskloadTraceIsBitIdentical)
{
    expectGolden({"diskload", 0x6b987f2b967e83f3ull, 20000, 28});
}

TEST(ServerGolden, FaultInjectedDiskloadTraceIsBitIdentical)
{
    expectGolden({"diskload", 0xaf25c3d0d25c2e7cull, 20000, 47, true});
}

} // namespace
} // namespace tdp
