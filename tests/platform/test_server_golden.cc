/**
 * @file
 * Golden digests of short simulated runs.
 *
 * The simulator promises bit-for-bit reproducible output for a given
 * seed. These runs pin that output: any change to a floating-point
 * operation, its operand order or an RNG draw anywhere in the
 * per-quantum path changes the collected trace and fails here. The
 * three runs cover a partly awake idle machine, fully occupied cores
 * (gcc x8) and the page-cache, sync, disk and interrupt paths
 * (diskload x8).
 *
 * A deliberate model change re-baselines the constants below; a
 * refactor or speed-up must leave them alone.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "measure/trace_io.hh"
#include "platform/server.hh"

namespace tdp {
namespace {

constexpr uint64_t goldenSeed = 0x60D1;
constexpr Seconds goldenSeconds = 20.0;

struct GoldenRun
{
    const char *workload;
    uint64_t traceDigest;
    uint64_t quanta;
    uint64_t events;
};

void
expectGolden(const GoldenRun &golden)
{
    Server server(goldenSeed);
    const std::string workload = golden.workload;
    if (workload != "idle")
        server.runner().launchStaggered(workload, 8, 0.5, 0.0);
    const SampleTrace &trace = server.runAndCollect(goldenSeconds);

    std::ostringstream os;
    writeTraceBinary(os, trace);
    const std::string bytes = os.str();
    const uint64_t digest = fnv1a64(bytes.data(), bytes.size());

    EXPECT_EQ(digest, golden.traceDigest)
        << workload << ": trace digest 0x" << std::hex << digest;
    EXPECT_EQ(server.system().quantaExecuted(), golden.quanta)
        << workload;
    EXPECT_EQ(server.system().events().processedCount(), golden.events)
        << workload;
}

TEST(ServerGolden, IdleTraceIsBitIdentical)
{
    expectGolden({"idle", 0x28240730d8e8c23aull, 20000, 20});
}

TEST(ServerGolden, FullyOccupiedGccTraceIsBitIdentical)
{
    expectGolden({"gcc", 0x16fef18826c2ffa3ull, 20000, 28});
}

TEST(ServerGolden, DiskloadTraceIsBitIdentical)
{
    expectGolden({"diskload", 0xd2617491f1896485ull, 20000, 28});
}

} // namespace
} // namespace tdp
