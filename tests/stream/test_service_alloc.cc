/**
 * @file
 * Zero-allocation steady-state proof for the drain path: once every
 * session exists and every scratch buffer has grown to capacity, an
 * offer+tick cycle over accepted samples must perform *no* heap
 * allocations - the in-place staging, the per-shard AlignedSample
 * scratch, EventVector::fromSampleInto and the flat client index
 * make the accepted-sample path allocation-free by construction,
 * and this test pins that with the counting operator new hook
 * (alloc_hook.cc). Skipped under sanitizers, which own operator new.
 */

#include <cstdio>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_hook.hh"
#include "common/atomic_file.hh"
#include "stream/checkpoint.hh"
#include "stream/service.hh"
#include "stream_fleet.hh"

namespace tdp {
namespace stream {
namespace {

using testutil::Fleet;
using testutil::trainedEstimator;

void
expectSteadyStateAllocationFree(bool telemetry,
                                bool checkpointing = false)
{
    if (!tdp::testutil::allocationHookActive())
        GTEST_SKIP() << "sanitizer build: operator new is owned by "
                        "the sanitizer runtime";

    StreamConfig cfg;
    cfg.ingest.shards = 4;
    cfg.ingest.ringCapacity = 256;
    cfg.ingest.highWatermark = 0; // no shedding
    cfg.ingest.seed = 0x5eed;
    cfg.session.counterWidthBits = 40;
    cfg.session.idleTimeoutTicks = 1u << 20;
    cfg.session.quarantineThreshold = 8;
    cfg.session.wattsWindow = 8;
    // More rows per block than the whole test accepts: no block
    // ever seals, so no refit runs (the refit solve allocates,
    // legitimately - it is not the accepted-sample path). The row
    // storage itself is preallocated at construction.
    cfg.refitBlockRows = 512;
    cfg.refitWindowBlocks = 2;
    cfg.drainBudget = 64;
    cfg.evictEveryTicks = 0;
    // The flight recorder is always on; when the timeline layer is
    // enabled too, windows seal every other tick inside the measured
    // section - sealWindow and the HDR records must stay POD stores
    // into preallocated storage.
    cfg.telemetry.timeline = telemetry;
    cfg.telemetry.windowTicks = 2;
    StreamService service(cfg, trainedEstimator());
    const ExperimentPool pool(1);

    // Checkpoint every tick. The write itself (serialization
    // buffers, file I/O) is exempt from the zero-allocation
    // contract, so it runs between rounds, outside the measured
    // windows - what must stay allocation-free is the tick path
    // with checkpointing machinery engaged (flight events, counter
    // bumps).
    std::unique_ptr<StreamCheckpointer> checkpointer;
    if (checkpointing)
        checkpointer = std::make_unique<StreamCheckpointer>(
            service, testing::TempDir() + "tdp-alloc-ckpt", 1);

    constexpr int clients = 48;
    constexpr int warmupRounds = 6;
    constexpr int measuredRounds = 4;
    Fleet fleet(clients, 40);

    // Pre-generate every sample: the synthetic generator itself
    // allocates (per-CPU snapshot vectors), which is fleet overhead,
    // not service drain work.
    std::vector<std::vector<StreamSample>> rounds;
    for (int round = 0; round < warmupRounds + measuredRounds;
         ++round) {
        std::vector<StreamSample> batch;
        batch.reserve(clients);
        for (int c = 0; c < clients; ++c)
            batch.push_back(
                fleet.next(c, 0.1 + 0.8 * ((round + c) % 10) / 9.0));
        rounds.push_back(std::move(batch));
    }

    // Warmup: create every session, grow every ring, staging slot,
    // EventVector and refit-window buffer to capacity.
    for (int round = 0; round < warmupRounds; ++round) {
        for (const StreamSample &s : rounds[round])
            service.offer(s);
        service.tick(pool);
        while (service.stats().drained <
               service.ingestStats().admitted)
            service.tick(pool);
        if (checkpointer)
            checkpointer->onTick();
    }

    // Steady state: same clients, accepted samples only. Zero heap
    // allocations allowed anywhere in offer+drain+estimate+publish.
    // Measured per round so the (exempt) checkpoint I/O between
    // rounds stays outside the counted windows.
    uint64_t allocations = 0;
    for (int round = warmupRounds;
         round < warmupRounds + measuredRounds; ++round) {
        const uint64_t before = tdp::testutil::allocationCount();
        for (const StreamSample &s : rounds[round])
            service.offer(s);
        service.tick(pool);
        while (service.stats().drained <
               service.ingestStats().admitted)
            service.tick(pool);
        allocations += tdp::testutil::allocationCount() - before;
        if (checkpointer)
            checkpointer->onTick();
    }
    EXPECT_EQ(allocations, 0u)
        << allocations
        << " allocation(s) on the steady-state drain path";
    if (checkpointer) {
        EXPECT_GT(checkpointer->written(), 0u);
    }

    // Sanity: the measured section really drained accepted samples.
    EXPECT_EQ(service.sessionStats().accepted,
              static_cast<uint64_t>(clients) *
                  (warmupRounds + measuredRounds - 1));
    EXPECT_EQ(service.ingestStats().overflow, 0u);
    if (telemetry) {
        EXPECT_GT(service.telemetry().timeline().size(), 0u);
    }
}

TEST(StreamServiceAlloc, SteadyStateDrainIsAllocationFree)
{
    expectSteadyStateAllocationFree(false);
}

TEST(StreamServiceAlloc, SteadyStateWithTelemetryIsAllocationFree)
{
    expectSteadyStateAllocationFree(true);
}

TEST(StreamServiceAlloc, SteadyStateWithCheckpointingIsAllocationFree)
{
    expectSteadyStateAllocationFree(true, true);
}

/**
 * The checkpoint writer thread's steady state. StreamCheckpointer
 * publishes on its own thread while the next ticks run, so the
 * publish must not allocate either, or the steady-state windows
 * above would count it. One thread publishing the same destination
 * again and again - what the writer does - allocates nothing after
 * its first publish.
 */
TEST(StreamServiceAlloc, RepeatedAtomicPublishIsAllocationFree)
{
    if (!tdp::testutil::allocationHookActive())
        GTEST_SKIP() << "sanitizer build: operator new is owned by "
                        "the sanitizer runtime";

    const std::string path = testing::TempDir() + "tdp-alloc-publish";
    const std::string payload(64 * 1024, 'x');
    const std::function<bool(std::ostream &)> writer =
        [&payload](std::ostream &os) {
            os.write(payload.data(),
                     static_cast<std::streamsize>(payload.size()));
            return os.good();
        };
    std::string error;
    ASSERT_TRUE(writeFileAtomic(path, writer, &error)) << error;
    ASSERT_TRUE(writeFileAtomic(path, writer, &error)) << error;

    const uint64_t before = tdp::testutil::allocationCount();
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(writeFileAtomic(path, writer, &error)) << error;
    EXPECT_EQ(tdp::testutil::allocationCount() - before, 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace stream
} // namespace tdp
