/**
 * @file
 * Restore edge cases for the crash-safe checkpoint subsystem: empty
 * and mid-stream round trips with lockstep tail replay against an
 * uninterrupted twin, an all-quarantined fleet, mid-window RLS
 * partials, wraparound-heavy counters, fingerprint rejection, torn
 * and doubly-corrupt generations, injected publish faults (ENOSPC,
 * EXDEV) through the periodic checkpointer, the writer thread's
 * reap points (an ENOSPC counted when reaped, a destructor that
 * drains, a SIGKILL while a write is in flight), hostile traffic (a
 * ring backlog past the high watermark and a Degraded CPU rail), and
 * the decoder's answer to damaged files: version 1 headers, inflated
 * section lengths and a seeded sweep of bit flips and truncations.
 */

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "alloc_hook.hh"
#include "common/atomic_file.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "stream/checkpoint.hh"
#include "stream/service.hh"
#include "stream_fleet.hh"

namespace tdp {
namespace stream {
namespace {

using testutil::Fleet;
using testutil::trainedEstimator;

StreamConfig
baseConfig()
{
    StreamConfig cfg;
    cfg.ingest.shards = 4;
    cfg.ingest.ringCapacity = 128;
    cfg.ingest.highWatermark = 96;
    cfg.ingest.seed = 0x5eed;
    cfg.session.counterWidthBits = 40;
    cfg.session.idleTimeoutTicks = 32;
    cfg.session.quarantineThreshold = 4;
    cfg.session.wattsWindow = 8;
    cfg.drift.window = 16;
    cfg.drift.factor = 3.0;
    cfg.drift.floorWatts = 0.5;
    cfg.drift.healthyWindows = 2;
    cfg.refitBlockRows = 8;
    cfg.refitWindowBlocks = 4;
    cfg.drainBudget = 64;
    cfg.evictEveryTicks = 8;
    cfg.verifyRefits = true;
    return cfg;
}

double
loadAt(int round, int client)
{
    return static_cast<double>(round % 40) / 39.0 *
           (0.60 + 0.05 * client);
}

/** Fresh rotation base under the test tmpdir; both slots removed. */
std::string
freshBase(const std::string &name)
{
    const std::string base = testing::TempDir() + "tdp-ckpt-" + name;
    std::remove(checkpointGenerationPath(base, 0).c_str());
    std::remove(checkpointGenerationPath(base, 1).c_str());
    return base;
}

/** Truncate a published checkpoint file to half its size, in place. */
void
tearFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 64u) << path;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
    ASSERT_TRUE(out.good()) << path;
}

/** The whole file at @p path. */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** Replace the file at @p path with @p bytes. */
void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** Overwrite the native-endian value at @p offset of @p bytes. */
template <typename T>
void
poke(std::string &bytes, size_t offset, T value)
{
    ASSERT_LE(offset + sizeof value, bytes.size());
    std::memcpy(bytes.data() + offset, &value, sizeof value);
}

/** TDPC v2 layout, as the tests walk it. @{ */
constexpr size_t kHeaderBytes = 44;
constexpr size_t kSectionCountOffset = 40;
constexpr size_t kFirstLengthOffset = kHeaderBytes + 4;
/** @} */

/** Where one section of a checkpoint file lies. */
struct SectionSpan
{
    size_t start = 0;   ///< its id
    size_t payload = 0; ///< first payload byte
    size_t length = 0;  ///< payload bytes
    size_t end = 0;     ///< one past its checksum
};

/** Walk the sections of an intact checkpoint file. */
std::vector<SectionSpan>
sectionsOf(const std::string &bytes)
{
    uint32_t count = 0;
    std::memcpy(&count, bytes.data() + kSectionCountOffset, sizeof count);
    std::vector<SectionSpan> spans;
    size_t pos = kHeaderBytes;
    for (uint32_t s = 0; s < count; ++s) {
        SectionSpan span;
        span.start = pos;
        uint64_t length = 0;
        std::memcpy(&length, bytes.data() + pos + 4, sizeof length);
        span.payload = pos + 12;
        span.length = static_cast<size_t>(length);
        span.end = span.payload + span.length + 8;
        spans.push_back(span);
        pos = span.end;
    }
    EXPECT_EQ(pos, bytes.size());
    return spans;
}

/**
 * Recompute the checksum chain of @p bytes (laid out as @p spans), so
 * a payload edit reaches the section decoders instead of stopping at
 * the checksum.
 */
void
reseal(std::string &bytes, const std::vector<SectionSpan> &spans)
{
    uint64_t chain = checksum64(bytes.data(), kHeaderBytes);
    for (const SectionSpan &span : spans) {
        chain = checksum64(bytes.data() + span.start,
                           span.end - 8 - span.start, chain);
        std::memcpy(bytes.data() + span.end - 8, &chain, sizeof chain);
    }
}

/** Drive @p rounds offer+tick rounds of @p clients valid samples. */
void
runRounds(StreamService &service, Fleet &fleet, int clients,
          int firstRound, int lastRound, const ExperimentPool &pool)
{
    for (int round = firstRound; round < lastRound; ++round) {
        for (int c = 0; c < clients; ++c)
            service.offer(fleet.next(c, loadAt(round, c)));
        service.tick(pool);
    }
}

/** Advance @p fleet past @p rounds rounds without offering anything. */
void
skipRounds(Fleet &fleet, int clients, int rounds)
{
    for (int round = 0; round < rounds; ++round)
        for (int c = 0; c < clients; ++c)
            (void)fleet.next(c, loadAt(round, c));
}

TEST(StreamCheckpoint, EmptyServiceRoundTrips)
{
    const std::string base = freshBase("empty");
    StreamService writer(baseConfig(), trainedEstimator());

    CheckpointInfo info;
    std::string error;
    ASSERT_TRUE(writeStreamCheckpoint(writer, base, 1, "empty-meta",
                                      &info, &error))
        << error;
    EXPECT_EQ(info.generation, 1u);
    EXPECT_EQ(info.tick, 0u);
    EXPECT_EQ(info.digest, writer.digest());

    std::string meta;
    ASSERT_TRUE(peekStreamCheckpointMeta(base, &meta, &error))
        << error;
    EXPECT_EQ(meta, "empty-meta");

    StreamService restored(baseConfig(), trainedEstimator());
    const RestoreResult res = restoreStreamCheckpoint(restored, base);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_FALSE(res.usedFallback);
    EXPECT_EQ(res.meta, "empty-meta");
    EXPECT_EQ(restored.now(), 0u);
    EXPECT_EQ(restored.activeSessions(), 0u);
    EXPECT_EQ(restored.digest(), writer.digest());
    EXPECT_EQ(restored.stats().restores, 1u);
    EXPECT_EQ(restored.stats().restoreFallbacks, 0u);
}

/**
 * The bounded-loss contract at test scale: checkpoint mid-stream,
 * restore into a fresh service, replay the tail in lockstep with an
 * uninterrupted twin, and require bitwise-equal digests, counters and
 * rail state - with the replay running at a different --jobs count.
 */
TEST(StreamCheckpoint, MidStreamRestoreMatchesUninterruptedTwin)
{
    const std::string base = freshBase("midstream");
    const int clients = 8;
    const int checkpointRound = 25;
    const int rounds = 70;

    StreamService twin(baseConfig(), trainedEstimator());
    const ExperimentPool pool1(1);
    Fleet twinFleet(clients, 40);
    runRounds(twin, twinFleet, clients, 0, checkpointRound, pool1);

    CheckpointInfo info;
    std::string error;
    ASSERT_TRUE(writeStreamCheckpoint(twin, base, 1, "", &info,
                                      &error))
        << error;
    EXPECT_EQ(info.tick, static_cast<uint64_t>(checkpointRound));
    runRounds(twin, twinFleet, clients, checkpointRound, rounds,
              pool1);

    StreamService restored(baseConfig(), trainedEstimator());
    const RestoreResult res = restoreStreamCheckpoint(restored, base);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(restored.now(), static_cast<uint64_t>(checkpointRound));

    // Replay the forgotten tail at a different worker count; the
    // fold digest must land on the uninterrupted run regardless.
    const ExperimentPool pool3(3);
    Fleet replayFleet(clients, 40);
    skipRounds(replayFleet, clients, checkpointRound);
    runRounds(restored, replayFleet, clients, checkpointRound, rounds,
              pool3);

    EXPECT_EQ(restored.digest(), twin.digest());
    EXPECT_EQ(restored.now(), twin.now());
    EXPECT_EQ(restored.stats().estimates, twin.stats().estimates);
    EXPECT_EQ(restored.stats().drained, twin.stats().drained);
    EXPECT_EQ(restored.sessionStats().accepted,
              twin.sessionStats().accepted);
    EXPECT_EQ(restored.sessionStats().wraps,
              twin.sessionStats().wraps);
    EXPECT_EQ(restored.slo().samples, twin.slo().samples);
    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        const RailStatus a = restored.railStatus(rail);
        const RailStatus b = twin.railStatus(rail);
        EXPECT_EQ(a.refits, b.refits) << railName(rail);
        EXPECT_EQ(a.verifiedRefits, b.verifiedRefits)
            << railName(rail);
        EXPECT_EQ(a.lastRefitRmse, b.lastRefitRmse)
            << railName(rail);
        EXPECT_GT(a.refits, 0u) << railName(rail);
    }
}

TEST(StreamCheckpoint, AllQuarantinedFleetRestores)
{
    const std::string base = freshBase("quarantined");
    const int clients = 6;
    StreamConfig cfg = baseConfig();
    StreamService writer(cfg, trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(clients, 40);

    // One valid baseline round, then poison every client until the
    // whole fleet is quarantined.
    runRounds(writer, fleet, clients, 0, 1, pool);
    for (int round = 1; round < 8; ++round) {
        for (int c = 0; c < clients; ++c) {
            StreamSample s = fleet.next(c, loadAt(round, c));
            s.raw.counts[0] = std::nan("");
            writer.offer(s);
        }
        writer.tick(pool);
    }
    ASSERT_EQ(writer.quarantinedSessions(),
              static_cast<size_t>(clients));

    CheckpointInfo info;
    std::string error;
    ASSERT_TRUE(writeStreamCheckpoint(writer, base, 1, "", &info,
                                      &error))
        << error;

    StreamService restored(cfg, trainedEstimator());
    const RestoreResult res = restoreStreamCheckpoint(restored, base);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(restored.quarantinedSessions(),
              static_cast<size_t>(clients));
    EXPECT_EQ(restored.digest(), writer.digest());

    // Quarantine survives the restore: offers are still refused at
    // the door, on both sides, with identical accounting.
    for (int c = 0; c < clients; ++c) {
        StreamSample s = fleet.next(c, 0.5);
        EXPECT_EQ(restored.offer(s), Admission::Quarantined);
        EXPECT_EQ(writer.offer(s), Admission::Quarantined);
    }
    restored.tick(pool);
    writer.tick(pool);
    EXPECT_EQ(restored.digest(), writer.digest());
    EXPECT_EQ(restored.stats().quarantinedAtDoor,
              writer.stats().quarantinedAtDoor);
}

/**
 * Checkpoint with partially filled refit blocks: 6 accepted rows per
 * round against 8-row blocks guarantees open (unsealed) rows in every
 * rail's window at the checkpoint tick. The restored partials must
 * keep feeding the *verified* incremental refit path - any
 * moment-cache drift would fatal inside maybeRefit.
 */
TEST(StreamCheckpoint, MidWindowRlsPartialsRoundTrip)
{
    const std::string base = freshBase("midwindow");
    const int clients = 6;
    const int checkpointRound = 10;
    const int rounds = 60;

    StreamService twin(baseConfig(), trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(clients, 40);
    runRounds(twin, fleet, clients, 0, checkpointRound, pool);

    // 6 * (10 - 1) = 54 accepted rows: mid-block by construction.
    ASSERT_NE(twin.sessionStats().accepted % 8, 0u);

    CheckpointInfo info;
    std::string error;
    ASSERT_TRUE(writeStreamCheckpoint(twin, base, 1, "", &info,
                                      &error))
        << error;
    runRounds(twin, fleet, clients, checkpointRound, rounds, pool);

    StreamService restored(baseConfig(), trainedEstimator());
    const RestoreResult res = restoreStreamCheckpoint(restored, base);
    ASSERT_TRUE(res.ok) << res.error;

    Fleet replayFleet(clients, 40);
    skipRounds(replayFleet, clients, checkpointRound);
    runRounds(restored, replayFleet, clients, checkpointRound, rounds,
              pool);

    EXPECT_EQ(restored.digest(), twin.digest());
    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        const RailStatus a = restored.railStatus(rail);
        const RailStatus b = twin.railStatus(rail);
        EXPECT_GT(a.refits, 0u) << railName(rail);
        EXPECT_EQ(a.refits, b.refits) << railName(rail);
        EXPECT_EQ(a.rls.rowsAdded, b.rls.rowsAdded)
            << railName(rail);
        EXPECT_EQ(a.rls.blocksSealed, b.rls.blocksSealed)
            << railName(rail);
    }
}

/**
 * Narrow 34-bit counters wrap every couple of samples; the pending
 * wrap-recovery state (last raw value, wrap count) must survive the
 * restore or the first replayed sample mis-recovers its delta.
 */
TEST(StreamCheckpoint, WraparoundPendingCountersSurviveRestore)
{
    const std::string base = freshBase("wraparound");
    const int clients = 6;
    const int checkpointRound = 17;
    const int rounds = 50;

    StreamConfig cfg = baseConfig();
    cfg.session.counterWidthBits = 34;
    StreamService twin(cfg, trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(clients, 34);
    runRounds(twin, fleet, clients, 0, checkpointRound, pool);
    ASSERT_GT(twin.sessionStats().wraps, 0u);

    CheckpointInfo info;
    std::string error;
    ASSERT_TRUE(writeStreamCheckpoint(twin, base, 1, "", &info,
                                      &error))
        << error;
    runRounds(twin, fleet, clients, checkpointRound, rounds, pool);

    StreamService restored(cfg, trainedEstimator());
    const RestoreResult res = restoreStreamCheckpoint(restored, base);
    ASSERT_TRUE(res.ok) << res.error;

    Fleet replayFleet(clients, 34);
    skipRounds(replayFleet, clients, checkpointRound);
    runRounds(restored, replayFleet, clients, checkpointRound, rounds,
              pool);

    EXPECT_EQ(restored.digest(), twin.digest());
    EXPECT_EQ(restored.sessionStats().wraps,
              twin.sessionStats().wraps);
    EXPECT_EQ(restored.sessionStats().quarantines,
              twin.sessionStats().quarantines);
    EXPECT_EQ(restored.sessionStats().quarantines, 0u);
}

TEST(StreamCheckpoint, ConfigFingerprintMismatchIsRejected)
{
    const std::string base = freshBase("fingerprint");
    StreamService writer(baseConfig(), trainedEstimator());

    CheckpointInfo info;
    std::string error;
    ASSERT_TRUE(writeStreamCheckpoint(writer, base, 1, "", &info,
                                      &error))
        << error;

    StreamConfig other = baseConfig();
    other.ingest.seed = 0xbadc0de;
    StreamService restored(other, trainedEstimator());
    const RestoreResult res = restoreStreamCheckpoint(restored, base);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("fingerprint"), std::string::npos)
        << res.error;
}

/**
 * The fingerprint hashes the configuration and the trained fallback
 * rungs, none of which change at runtime, so the service computes it
 * once: a service that has streamed and refitted reads it without an
 * allocation, and it still equals a freshly built twin's.
 */
TEST(StreamCheckpoint, FingerprintIsComputedOnce)
{
    const int clients = 8;
    StreamService service(baseConfig(), trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(clients, 40);
    runRounds(service, fleet, clients, 0, 40, pool);
    ASSERT_GT(service.railStatus(Rail::Cpu).refits, 0u);

    const uint64_t before = ::tdp::testutil::allocationCount();
    const uint64_t fingerprint = service.checkpointFingerprint();
    if (::tdp::testutil::allocationHookActive()) {
        EXPECT_EQ(::tdp::testutil::allocationCount() - before, 0u);
    }

    const StreamService twin(baseConfig(), trainedEstimator());
    EXPECT_EQ(fingerprint, twin.checkpointFingerprint());
}

TEST(StreamCheckpoint, RestoreRequiresFreshService)
{
    const std::string base = freshBase("used");
    StreamService writer(baseConfig(), trainedEstimator());
    CheckpointInfo info;
    std::string error;
    ASSERT_TRUE(writeStreamCheckpoint(writer, base, 1, "", &info,
                                      &error))
        << error;

    StreamService used(baseConfig(), trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(2, 40);
    runRounds(used, fleet, 2, 0, 3, pool);
    const RestoreResult res = restoreStreamCheckpoint(used, base);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("freshly constructed"),
              std::string::npos)
        << res.error;
}

TEST(StreamCheckpoint, TornNewestGenerationFallsBack)
{
    const std::string base = freshBase("torn");
    const int clients = 8;
    const int rounds = 60;

    StreamService twin(baseConfig(), trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(clients, 40);

    runRounds(twin, fleet, clients, 0, 20, pool);
    CheckpointInfo info;
    std::string error;
    ASSERT_TRUE(writeStreamCheckpoint(twin, base, 1, "gen-one",
                                      &info, &error))
        << error;
    runRounds(twin, fleet, clients, 20, 30, pool);
    ASSERT_TRUE(writeStreamCheckpoint(twin, base, 2, "gen-two",
                                      &info, &error))
        << error;
    runRounds(twin, fleet, clients, 30, rounds, pool);

    // Tear the newest generation; the loader must fall back to
    // generation 1 with a warning, never a fatal.
    tearFile(checkpointGenerationPath(base, 2));

    StreamService restored(baseConfig(), trainedEstimator());
    const RestoreResult res = restoreStreamCheckpoint(restored, base);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.usedFallback);
    EXPECT_FALSE(res.warning.empty());
    EXPECT_EQ(res.info.generation, 1u);
    EXPECT_EQ(res.info.tick, 20u);
    EXPECT_EQ(res.meta, "gen-one");
    EXPECT_EQ(restored.stats().restoreFallbacks, 1u);

    // Bounded loss, not state loss: replaying from the older
    // generation still lands on the uninterrupted digest.
    Fleet replayFleet(clients, 40);
    skipRounds(replayFleet, clients, 20);
    runRounds(restored, replayFleet, clients, 20, rounds, pool);
    EXPECT_EQ(restored.digest(), twin.digest());
}

TEST(StreamCheckpoint, BothGenerationsCorruptFailsCleanly)
{
    const std::string base = freshBase("corrupt");
    StreamService writer(baseConfig(), trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(4, 40);

    runRounds(writer, fleet, 4, 0, 10, pool);
    CheckpointInfo info;
    std::string error;
    ASSERT_TRUE(writeStreamCheckpoint(writer, base, 1, "", &info,
                                      &error))
        << error;
    runRounds(writer, fleet, 4, 10, 20, pool);
    ASSERT_TRUE(writeStreamCheckpoint(writer, base, 2, "", &info,
                                      &error))
        << error;
    tearFile(checkpointGenerationPath(base, 1));
    tearFile(checkpointGenerationPath(base, 2));

    StreamService restored(baseConfig(), trainedEstimator());
    const RestoreResult res = restoreStreamCheckpoint(restored, base);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("no usable checkpoint"),
              std::string::npos)
        << res.error;

    std::string meta;
    EXPECT_FALSE(peekStreamCheckpointMeta(base, &meta, &error));
}

TEST(StreamCheckpoint, EnospcFailureIsCountedAndNonFatal)
{
    const std::string base = freshBase("enospc");
    StreamService service(baseConfig(), trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(4, 40);
    runRounds(service, fleet, 4, 0, 5, pool);

    StreamCheckpointer checkpointer(service, base, 64);
    setIoFaultHook([&base](const std::string &path) {
        return path.compare(0, base.size(), base) == 0
                   ? IoFault::Enospc
                   : IoFault::None;
    });
    EXPECT_FALSE(checkpointer.writeNow());
    setIoFaultHook({});

    EXPECT_EQ(checkpointer.failures(), 1u);
    EXPECT_EQ(checkpointer.written(), 0u);
    EXPECT_EQ(checkpointer.generation(), 0u);
    EXPECT_EQ(service.stats().checkpointFailures, 1u);
    EXPECT_EQ(service.stats().checkpoints, 0u);

    // The service keeps running, and the retry (same generation,
    // fault cleared) succeeds.
    runRounds(service, fleet, 4, 5, 10, pool);
    EXPECT_TRUE(checkpointer.writeNow());
    EXPECT_EQ(checkpointer.generation(), 1u);
    EXPECT_EQ(service.stats().checkpoints, 1u);

    StreamService restored(baseConfig(), trainedEstimator());
    const RestoreResult res = restoreStreamCheckpoint(restored, base);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.info.tick, 10u);
    EXPECT_EQ(restored.digest(), service.digest());
}

TEST(StreamCheckpoint, ExdevFallsBackToCrossFilesystemCopy)
{
    const std::string base = freshBase("exdev");
    StreamService service(baseConfig(), trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(4, 40);
    runRounds(service, fleet, 4, 0, 8, pool);

    StreamCheckpointer checkpointer(service, base, 64);
    setIoFaultHook([&base](const std::string &path) {
        return path.compare(0, base.size(), base) == 0
                   ? IoFault::Exdev
                   : IoFault::None;
    });
    EXPECT_TRUE(checkpointer.writeNow());
    setIoFaultHook({});

    EXPECT_EQ(checkpointer.failures(), 0u);
    EXPECT_EQ(checkpointer.written(), 1u);

    StreamService restored(baseConfig(), trainedEstimator());
    const RestoreResult res = restoreStreamCheckpoint(restored, base);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_FALSE(res.usedFallback);
    EXPECT_EQ(restored.digest(), service.digest());
}

/**
 * A periodic checkpoint's outcome lands when its write is reaped, at
 * the next checkpoint tick; its attempt lands on the tick that
 * encodes it. An injected ENOSPC on the first publish is therefore
 * invisible until tick 8 reaps it, the generation does not advance,
 * and the retry handed off on that same tick succeeds.
 */
TEST(StreamCheckpoint, OnTickEnospcIsCountedWhenReaped)
{
    const std::string base = freshBase("ontick-enospc");
    StreamConfig cfg = baseConfig();
    cfg.telemetry.timeline = true;
    cfg.telemetry.windowTicks = 1;
    StreamService service(cfg, trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(4, 40);
    std::atomic<int> enospcLeft{1};
    setIoFaultHook([&base, &enospcLeft](const std::string &path) {
        return path.compare(0, base.size(), base) == 0 &&
                       enospcLeft.fetch_sub(1) > 0
                   ? IoFault::Enospc
                   : IoFault::None;
    });
    StreamCheckpointer checkpointer(service, base, 4);
    auto runTo = [&](int tick) {
        for (int round = static_cast<int>(service.now()); round < tick;
             ++round) {
            runRounds(service, fleet, 4, round, round + 1, pool);
            checkpointer.onTick();
        }
    };

    runTo(4); // generation 1 handed off; its publish fails
    EXPECT_EQ(checkpointer.failures(), 0u);
    EXPECT_EQ(checkpointer.written(), 0u);
    EXPECT_EQ(service.stats().checkpointFailures, 0u);

    runTo(8); // reaps the failure, hands off generation 1 again
    EXPECT_EQ(checkpointer.failures(), 1u);
    EXPECT_EQ(checkpointer.written(), 0u);
    EXPECT_EQ(checkpointer.generation(), 0u);
    EXPECT_EQ(service.stats().checkpointFailures, 1u);
    EXPECT_EQ(service.stats().checkpoints, 0u);

    runTo(12); // reaps the retry, hands off generation 2
    EXPECT_EQ(checkpointer.failures(), 1u);
    EXPECT_EQ(checkpointer.written(), 1u);
    EXPECT_EQ(checkpointer.generation(), 1u);
    EXPECT_EQ(checkpointer.last().tick, 8u);
    EXPECT_EQ(service.stats().checkpoints, 1u);

    // One more tick seals the window holding the tick-12 attempt:
    // three attempts, one per checkpoint tick, whatever their
    // outcome and whenever it was reaped.
    service.tick(pool);
    uint64_t attempts = 0;
    service.telemetry().timeline().forEach(
        [&](const TimelineWindow &w) {
            EXPECT_LE(w.delta.checkpoints, 1u) << "window " << w.tick;
            attempts += w.delta.checkpoints;
        });
    EXPECT_EQ(attempts, 3u);

    EXPECT_TRUE(checkpointer.writeNow());
    setIoFaultHook({});
    EXPECT_EQ(checkpointer.generation(), 3u);
    StreamService restored(cfg, trainedEstimator());
    const RestoreResult res = restoreStreamCheckpoint(restored, base);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.info.generation, 3u);
    EXPECT_EQ(restored.digest(), service.digest());
}

/**
 * A checkpointer destroyed right after a hand-off drains its writer:
 * the generation in flight is published, noted with the service and
 * restorable, and its replay lands on the uninterrupted twin.
 */
TEST(StreamCheckpoint, DestructorDrainsWriteInFlight)
{
    const std::string base = freshBase("drain");
    const int clients = 6;
    const int checkpointTick = 8;
    const int rounds = 30;
    StreamService twin(baseConfig(), trainedEstimator());
    const ExperimentPool pool(1);
    Fleet twinFleet(clients, 40);
    {
        StreamCheckpointer checkpointer(twin, base, checkpointTick);
        for (int round = 0; round < checkpointTick; ++round) {
            runRounds(twin, twinFleet, clients, round, round + 1, pool);
            checkpointer.onTick();
        }
        EXPECT_EQ(checkpointer.written(), 0u);
    }
    EXPECT_EQ(twin.stats().checkpoints, 1u);
    runRounds(twin, twinFleet, clients, checkpointTick, rounds, pool);

    StreamService restored(baseConfig(), trainedEstimator());
    const RestoreResult res = restoreStreamCheckpoint(restored, base);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.info.generation, 1u);
    ASSERT_EQ(restored.now(), static_cast<uint64_t>(checkpointTick));
    Fleet replayFleet(clients, 40);
    skipRounds(replayFleet, clients, checkpointTick);
    runRounds(restored, replayFleet, clients, checkpointTick, rounds,
              pool);
    EXPECT_EQ(restored.digest(), twin.digest());
    EXPECT_EQ(restored.stats().estimates, twin.stats().estimates);
}

/**
 * A crash while a write is in flight (the KilledBatchRerun pattern).
 * A child serves with a checkpoint every tick; its writer thread
 * signals the parent from inside the sixth publish, and the parent
 * SIGKILLs it at once, racing that write. The rotation must restore
 * the older or the newer generation - whichever landed - with the
 * uninterrupted twin's digest at its tick: never a torn slot, never
 * a failed restore.
 */
TEST(StreamCheckpoint, SigkillDuringWriteRestoresAGeneration)
{
    const std::string base = freshBase("sigkill");
    const int clients = 8;
    constexpr int kSignalPublish = 6;
    int ready[2];
    ASSERT_EQ(::pipe(ready), 0);
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::close(ready[0]);
        std::atomic<int> publishes{0};
        setIoFaultHook([&](const std::string &) {
            if (++publishes == kSignalPublish) {
                const char byte = 1;
                if (::write(ready[1], &byte, 1) != 1)
                    ::_exit(3);
            }
            return IoFault::None;
        });
        StreamService service(baseConfig(), trainedEstimator());
        const ExperimentPool pool(1);
        Fleet fleet(clients, 40);
        StreamCheckpointer checkpointer(service, base, 1);
        for (int round = 0; round < 1000; ++round) {
            runRounds(service, fleet, clients, round, round + 1, pool);
            checkpointer.onTick();
        }
        ::_exit(0);
    }
    ::close(ready[1]);
    // A child that never signals is killed after a minute rather
    // than hanging the suite.
    pollfd watch{ready[0], POLLIN, 0};
    char byte = 0;
    const ssize_t got =
        ::poll(&watch, 1, 60000) == 1 ? ::read(ready[0], &byte, 1) : 0;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    ::close(ready[0]);
    ASSERT_EQ(got, 1) << "the child never reached publish "
                      << kSignalPublish;
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    StreamService restored(baseConfig(), trainedEstimator());
    const RestoreResult res = restoreStreamCheckpoint(restored, base);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_FALSE(res.usedFallback) << res.warning;
    // Generation g is taken at tick g; g - 1 was reaped before g was
    // handed off, so the older one is on disk for certain.
    EXPECT_GE(res.info.generation, kSignalPublish - 1u);
    EXPECT_EQ(res.info.tick, res.info.generation);

    StreamService twin(baseConfig(), trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(clients, 40);
    runRounds(twin, fleet, clients, 0,
              static_cast<int>(res.info.tick), pool);
    EXPECT_EQ(restored.now(), twin.now());
    EXPECT_EQ(restored.digest(), twin.digest());

    // The killed writer's temp file, if it had one.
    const std::filesystem::path dir =
        std::filesystem::path(base).parent_path();
    const std::string prefix =
        std::filesystem::path(base).filename().string();
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(dir, ec))
        if (entry.path().filename().string().rfind(prefix, 0) == 0)
            std::filesystem::remove(entry.path(), ec);
}

/**
 * Hostile schedule of RestoreWithBacklogAndDegradedRailMatchesTwin:
 * healthy rounds, then a 10x burst into tight rings, then a +35 W
 * shift of the measured CPU rail. The counters stay truthful, so
 * only the CPU rail's residuals move.
 */
constexpr int kBurstFrom = 40;
constexpr int kDriftFrom = 48;

/** Offer one hostile round into @p service, or only advance @p fleet
 *  when @p service is null (the replay's fast-forward). */
void
hostileRound(StreamService *service, Fleet &fleet, int clients,
             int round)
{
    const bool burst = round >= kBurstFrom && round < kDriftFrom;
    const double shift = round >= kDriftFrom ? 35.0 : 0.0;
    for (int c = 0; c < clients; ++c) {
        for (int k = 0; k < (burst ? 10 : 1); ++k) {
            const StreamSample s =
                fleet.next(c, loadAt(round, c), shift);
            if (service != nullptr)
                service->offer(s);
        }
    }
}

/**
 * Restore @p base into a fresh service, fast-forward a fresh fleet
 * over the rounds the checkpoint covers, replay the tail at 3 workers
 * and require every counter @p twin reports, bit for bit.
 */
void
expectReplayMatchesTwin(const StreamConfig &cfg,
                        const std::string &base, int clients,
                        int rounds, int drainTicks,
                        const StreamService &twin)
{
    StreamService restored(cfg, trainedEstimator());
    const RestoreResult res = restoreStreamCheckpoint(restored, base);
    ASSERT_TRUE(res.ok) << res.error;
    const int resumeRound = static_cast<int>(restored.now());

    const ExperimentPool pool3(3);
    Fleet fleet(clients, 40);
    for (int round = 0; round < resumeRound; ++round)
        hostileRound(nullptr, fleet, clients, round);
    for (int round = resumeRound; round < rounds; ++round) {
        hostileRound(&restored, fleet, clients, round);
        restored.tick(pool3);
    }
    for (int i = 0; i < drainTicks; ++i)
        restored.tick(pool3);

    EXPECT_EQ(restored.digest(), twin.digest());
    EXPECT_EQ(restored.now(), twin.now());
    EXPECT_EQ(restored.stats().drained, twin.stats().drained);
    EXPECT_EQ(restored.stats().estimates, twin.stats().estimates);
    EXPECT_EQ(restored.ingestStats().offered,
              twin.ingestStats().offered);
    EXPECT_EQ(restored.ingestStats().admitted,
              twin.ingestStats().admitted);
    EXPECT_EQ(restored.ingestStats().shed, twin.ingestStats().shed);
    EXPECT_EQ(restored.ingestStats().overflow,
              twin.ingestStats().overflow);
    EXPECT_EQ(restored.sessionStats().accepted,
              twin.sessionStats().accepted);
    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        const RailStatus a = restored.railStatus(rail);
        const RailStatus b = twin.railStatus(rail);
        EXPECT_EQ(a.state, b.state) << railName(rail);
        EXPECT_EQ(a.refits, b.refits) << railName(rail);
        EXPECT_EQ(a.fullQrRefits, b.fullQrRefits) << railName(rail);
        EXPECT_EQ(a.verifiedRefits, b.verifiedRefits)
            << railName(rail);
        EXPECT_EQ(a.degradedPublishes, b.degradedPublishes)
            << railName(rail);
        EXPECT_EQ(a.lastRefitRmse, b.lastRefitRmse) << railName(rail);
        EXPECT_EQ(a.baselineRmse, b.baselineRmse) << railName(rail);
        EXPECT_EQ(a.drift.windows, b.drift.windows) << railName(rail);
        EXPECT_EQ(a.drift.engaged, b.drift.engaged) << railName(rail);
        EXPECT_EQ(a.drift.recovered, b.drift.recovered)
            << railName(rail);
        EXPECT_EQ(a.drift.relapses, b.drift.relapses)
            << railName(rail);
    }
}

/**
 * The bounded-loss contract under the traffic the other tests avoid:
 * one checkpoint while tight rings hold a backlog past the high
 * watermark (queued samples are state), one while the CPU rail is
 * Degraded and fallbacks are being published (drift-guard state).
 * Each restores into a fresh service and replays the tail at another
 * worker count to the uninterrupted twin's digest and counters.
 */
TEST(StreamCheckpoint, RestoreWithBacklogAndDegradedRailMatchesTwin)
{
    StreamConfig cfg = baseConfig();
    cfg.ingest.shards = 2;
    cfg.ingest.ringCapacity = 16;
    cfg.ingest.highWatermark = 8;
    cfg.drainBudget = 4;
    const int clients = 4;
    const int rounds = 160;
    const int drainTicks = 32;
    const std::string backlogBase = freshBase("backlog");
    const std::string degradedBase = freshBase("degraded");

    StreamService twin(cfg, trainedEstimator());
    const ExperimentPool pool1(1);
    Fleet fleet(clients, 40);
    bool backlogWritten = false;
    bool degradedWritten = false;
    CheckpointInfo info;
    std::string error;
    for (int round = 0; round < rounds; ++round) {
        hostileRound(&twin, fleet, clients, round);
        twin.tick(pool1);
        const uint64_t backlog =
            twin.ingestStats().admitted - twin.stats().drained;
        if (!backlogWritten && twin.ingestStats().overflow > 0 &&
            backlog > cfg.ingest.shards * cfg.ingest.highWatermark) {
            ASSERT_GT(twin.ingestStats().shed, 0u);
            ASSERT_TRUE(writeStreamCheckpoint(twin, backlogBase, 1, "",
                                              &info, &error))
                << error;
            backlogWritten = true;
        }
        const RailStatus cpu = twin.railStatus(Rail::Cpu);
        if (!degradedWritten && round >= kDriftFrom &&
            cpu.state == DriftState::Degraded &&
            cpu.degradedPublishes > 0) {
            ASSERT_TRUE(writeStreamCheckpoint(twin, degradedBase, 1,
                                              "", &info, &error))
                << error;
            degradedWritten = true;
        }
    }
    for (int i = 0; i < drainTicks; ++i)
        twin.tick(pool1);
    ASSERT_TRUE(backlogWritten) << "rings never passed the watermark";
    ASSERT_TRUE(degradedWritten) << "CPU rail never degraded";
    EXPECT_GE(twin.railStatus(Rail::Cpu).drift.engaged, 1u);

    {
        SCOPED_TRACE("checkpoint with a ring backlog");
        expectReplayMatchesTwin(cfg, backlogBase, clients, rounds,
                                drainTicks, twin);
    }
    {
        SCOPED_TRACE("checkpoint with the CPU rail degraded");
        expectReplayMatchesTwin(cfg, degradedBase, clients, rounds,
                                drainTicks, twin);
    }
}

/**
 * A v1 file is refused by its version, before the fingerprint (which
 * folds the version, so it would not match either) is looked at.
 */
TEST(StreamCheckpoint, Version1FileIsRejected)
{
    const std::string base = freshBase("version1");
    StreamService writer(baseConfig(), trainedEstimator());
    CheckpointInfo info;
    std::string error;
    ASSERT_TRUE(writeStreamCheckpoint(writer, base, 1, "", &info,
                                      &error))
        << error;
    std::string bytes = readFile(info.path);
    poke<uint32_t>(bytes, 4, 1);
    writeFile(info.path, bytes);

    StreamService restored(baseConfig(), trainedEstimator());
    const RestoreResult res = restoreStreamCheckpoint(restored, base);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("unsupported version 1"), std::string::npos)
        << res.error;
    EXPECT_EQ(res.error.find("fingerprint"), std::string::npos)
        << res.error;
    std::string meta;
    EXPECT_FALSE(peekStreamCheckpointMeta(base, &meta, &error));
    EXPECT_NE(error.find("unsupported version 1"), std::string::npos)
        << error;
}

/**
 * A stored section length near 2^64 must not wrap the bound check:
 * the slot is rejected with a reason, nothing throws, and the other
 * slot serves when it is good.
 */
TEST(StreamCheckpoint, InflatedSectionLengthIsRejected)
{
    const std::string base = freshBase("inflated");
    StreamService writer(baseConfig(), trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(4, 40);
    runRounds(writer, fleet, 4, 0, 6, pool);
    CheckpointInfo first;
    std::string error;
    ASSERT_TRUE(writeStreamCheckpoint(writer, base, 1, "one", &first,
                                      &error))
        << error;
    runRounds(writer, fleet, 4, 6, 9, pool);
    CheckpointInfo second;
    ASSERT_TRUE(writeStreamCheckpoint(writer, base, 2, "two", &second,
                                      &error))
        << error;
    const std::string good = readFile(second.path);
    const std::string older = readFile(first.path);
    const uint64_t remaining = good.size() - (kFirstLengthOffset + 8);

    for (const uint64_t length : {~uint64_t{0}, ~uint64_t{0} - 7,
                                  uint64_t{remaining + 1}}) {
        SCOPED_TRACE("length " + std::to_string(length));
        std::string bytes = good;
        poke<uint64_t>(bytes, kFirstLengthOffset, length);
        writeFile(second.path, bytes);

        // The older slot is good: it serves.
        writeFile(first.path, older);
        StreamService restored(baseConfig(), trainedEstimator());
        RestoreResult res;
        EXPECT_NO_THROW(res = restoreStreamCheckpoint(restored, base));
        ASSERT_TRUE(res.ok) << res.error;
        EXPECT_TRUE(res.usedFallback);
        EXPECT_EQ(res.info.generation, 1u);
        EXPECT_EQ(res.meta, "one");
        EXPECT_NE(res.warning.find("truncated section 1"),
                  std::string::npos)
            << res.warning;

        // Alone, the damaged slot fails cleanly, with its reason.
        std::remove(first.path.c_str());
        StreamService alone(baseConfig(), trainedEstimator());
        EXPECT_NO_THROW(res = restoreStreamCheckpoint(alone, base));
        EXPECT_FALSE(res.ok);
        EXPECT_NE(res.error.find("truncated section 1"),
                  std::string::npos)
            << res.error;
        std::string meta;
        bool peeked = true;
        EXPECT_NO_THROW(peeked =
                            peekStreamCheckpointMeta(base, &meta, &error));
        EXPECT_FALSE(peeked);
    }
}

/**
 * Seeded corruption sweep over a small checkpoint holding queued ring
 * samples and a Degraded CPU rail. Generation 1 is intact; every
 * damaged copy of generation 2 must make the restore serve generation
 * 1 or fail with a reason: no exception, no `fatal:` line and no
 * allocation larger than a small multiple of the file.
 *  - every single-bit flip in the header and the section framing
 *    (ids, lengths, checksums), and strided flips in the payloads:
 *    the checksum chain must catch each one;
 *  - the same payload flips with the chain recomputed, so they reach
 *    the section decoders, plus every bit of each payload's first
 *    16 bytes (the row and count fields): these may restore, but
 *    only cleanly;
 *  - truncation at every section boundary and one byte either side.
 */
TEST(StreamCheckpoint, CorruptionSweepRejectsCleanly)
{
    StreamConfig cfg = baseConfig();
    cfg.ingest.shards = 2;
    cfg.ingest.ringCapacity = 16;
    cfg.ingest.highWatermark = 8;
    cfg.drainBudget = 4;
    const int clients = 4;
    const std::string base = freshBase("sweep");

    StreamService writer(cfg, trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(clients, 40);
    int round = 0;
    for (; round < 160; ++round) {
        hostileRound(&writer, fleet, clients, round);
        writer.tick(pool);
        const RailStatus cpu = writer.railStatus(Rail::Cpu);
        if (round >= kDriftFrom && cpu.state == DriftState::Degraded &&
            cpu.degradedPublishes > 0)
            break;
    }
    ASSERT_EQ(writer.railStatus(Rail::Cpu).state, DriftState::Degraded);
    // Offered but not yet drained: queued samples are in the file.
    hostileRound(&writer, fleet, clients, ++round);
    ASSERT_GT(writer.ingestStats().admitted, writer.stats().drained);

    CheckpointInfo first;
    std::string error;
    ASSERT_TRUE(writeStreamCheckpoint(writer, base, 1, "one", &first,
                                      &error))
        << error;
    writer.tick(pool);
    hostileRound(&writer, fleet, clients, ++round);
    CheckpointInfo second;
    ASSERT_TRUE(writeStreamCheckpoint(writer, base, 2, "two", &second,
                                      &error))
        << error;
    const std::string good = readFile(second.path);
    const std::vector<SectionSpan> spans = sectionsOf(good);
    ASSERT_EQ(spans.size(), 5u);

    size_t cases = 0;
    size_t restoredNewest = 0;
    const bool countAllocations = ::tdp::testutil::allocationHookActive();
    // Restore one damaged generation 2. @p caught: the damage must be
    // detected (generation 1 serves); otherwise it may also restore.
    auto check = [&](const std::string &bytes, bool caught,
                     const std::string &what) {
        SCOPED_TRACE(what);
        ++cases;
        writeFile(second.path, bytes);
        StreamService restored(cfg, trainedEstimator());
        RestoreResult res;
        ::tdp::testutil::resetLargestAllocation();
        try {
            res = restoreStreamCheckpoint(restored, base);
        } catch (const std::exception &e) {
            ADD_FAILURE() << "restore threw: " << e.what();
            return;
        }
        if (countAllocations) {
            EXPECT_LE(::tdp::testutil::largestAllocation(),
                      2 * good.size());
        }
        if (!res.ok) {
            EXPECT_FALSE(caught) << res.error;
            EXPECT_FALSE(res.error.empty());
            return;
        }
        if (res.info.generation == 2) {
            EXPECT_FALSE(caught) << "undetected damage";
            ++restoredNewest;
            return;
        }
        EXPECT_EQ(res.info.generation, 1u);
        EXPECT_TRUE(res.usedFallback);
        EXPECT_EQ(restored.digest(), first.digest);
        EXPECT_EQ(res.meta, "one");
    };
    auto flip = [](std::string bytes, size_t offset, int bit) {
        bytes[offset] = static_cast<char>(bytes[offset] ^ (1 << bit));
        return bytes;
    };
    auto where = [](const char *kind, size_t offset, int bit) {
        return std::string(kind) + " flip at byte " +
               std::to_string(offset) + " bit " + std::to_string(bit);
    };

    testing::internal::CaptureStderr();
    for (size_t offset = 0; offset < kHeaderBytes; ++offset)
        for (int bit = 0; bit < 8; ++bit)
            check(flip(good, offset, bit), true,
                  where("header", offset, bit));
    for (const SectionSpan &span : spans) {
        std::vector<size_t> framing;
        for (size_t i = span.start; i < span.payload; ++i)
            framing.push_back(i);
        for (size_t i = span.end - 8; i < span.end; ++i)
            framing.push_back(i);
        for (const size_t offset : framing)
            for (int bit = 0; bit < 8; ++bit)
                check(flip(good, offset, bit), true,
                      where("framing", offset, bit));

        for (size_t i = 0; i < span.length; i += 53) {
            const size_t offset = span.payload + i;
            const int bit = static_cast<int>(offset % 8);
            check(flip(good, offset, bit), true,
                  where("payload", offset, bit));
            std::string sealed = flip(good, offset, bit);
            reseal(sealed, spans);
            check(sealed, false, where("resealed payload", offset, bit));
        }
        for (size_t i = 0; i < std::min<size_t>(16, span.length); ++i) {
            for (int bit = 0; bit < 8; ++bit) {
                std::string sealed = flip(good, span.payload + i, bit);
                reseal(sealed, spans);
                check(sealed, false,
                      where("resealed field", span.payload + i, bit));
            }
        }
    }
    std::vector<size_t> boundaries = {kHeaderBytes};
    for (const SectionSpan &span : spans)
        boundaries.push_back(span.end);
    for (const size_t boundary : boundaries) {
        for (const size_t cut : {boundary - 1, boundary, boundary + 1}) {
            if (cut >= good.size())
                continue;
            check(good.substr(0, cut), true,
                  "truncated to " + std::to_string(cut) + " bytes");
        }
    }
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(log.find("fatal:"), std::string::npos);
    EXPECT_GT(cases, 1500u);
    // Most decoder-level damage lands in counters and doubles, which
    // restore as stored; the sweep must have exercised both outcomes.
    EXPECT_GT(restoredNewest, 0u);
    EXPECT_LT(restoredNewest, cases);

    // The intact file still restores as generation 2.
    const size_t before = restoredNewest;
    check(good, false, "intact");
    EXPECT_EQ(restoredNewest, before + 1);
}

} // namespace
} // namespace stream
} // namespace tdp
