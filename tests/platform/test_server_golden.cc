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
 * The digest covers the TDPT payload only, not the 48-byte header:
 * the header's format version and checksum fields belong to the
 * container, so a format change that keeps the payload layout leaves
 * these constants alone.
 *
 * A deliberate model change re-baselines the constants below; a
 * refactor or speed-up must leave them alone.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "common/hash.hh"
#include "measure/trace_io.hh"
#include "platform/server.hh"

namespace tdp {
namespace {

constexpr uint64_t goldenSeed = 0x60D1;
constexpr Seconds goldenSeconds = 20.0;

/** Bytes of the TDPT header that precede the payload. */
constexpr size_t traceHeaderBytes = 48;

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
    ASSERT_GE(bytes.size(), traceHeaderBytes) << workload;
    const uint64_t digest = fnv1a64(bytes.data() + traceHeaderBytes,
                                    bytes.size() - traceHeaderBytes);

    EXPECT_EQ(digest, golden.traceDigest)
        << workload << ": payload digest 0x" << std::hex << digest;
    EXPECT_EQ(server.system().quantaExecuted(), golden.quanta)
        << workload;
    EXPECT_EQ(server.system().events().processedCount(), golden.events)
        << workload;
}

TEST(ServerGolden, IdleTraceIsBitIdentical)
{
    expectGolden({"idle", 0x7e62243f800b4418ull, 20000, 20});
}

TEST(ServerGolden, FullyOccupiedGccTraceIsBitIdentical)
{
    expectGolden({"gcc", 0x56b3b9b041f6ea89ull, 20000, 28});
}

TEST(ServerGolden, DiskloadTraceIsBitIdentical)
{
    expectGolden({"diskload", 0x1f14ba8d2c1ee9a7ull, 20000, 28});
}

} // namespace
} // namespace tdp
