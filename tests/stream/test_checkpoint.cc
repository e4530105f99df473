/**
 * @file
 * Restore edge cases for the crash-safe checkpoint subsystem: empty
 * and mid-stream round trips with lockstep tail replay against an
 * uninterrupted twin, an all-quarantined fleet, mid-window RLS
 * partials, wraparound-heavy counters, fingerprint rejection, torn
 * and doubly-corrupt generations, injected publish faults (ENOSPC,
 * EXDEV) through the periodic checkpointer, and hostile traffic: a
 * ring backlog past the high watermark and a Degraded CPU rail.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/atomic_file.hh"
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

} // namespace
} // namespace stream
} // namespace tdp
