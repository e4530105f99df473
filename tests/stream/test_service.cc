/**
 * @file
 * End-to-end tests for the streaming estimation service: steady-state
 * accepts with verified refits, bit-identical digests across worker
 * counts under forced overload, quarantine at the door, drift
 * engagement with fallback publishing and recovery, and the manifest
 * sections the CI schema checks.
 */

#include <cmath>
#include <cstring>
#include <vector>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "obs/run_manifest.hh"
#include "stream/service.hh"
#include "stream_fleet.hh"

namespace tdp {
namespace stream {
namespace {

using testutil::Fleet;
using testutil::idx;
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
loadAt(int round)
{
    return static_cast<double>(round % 40) / 39.0;
}

/** Per-client load spread so refit windows see distinct points. */
double
loadAt(int round, int client)
{
    return loadAt(round) * (0.60 + 0.05 * client);
}

uint64_t
bitsOf(double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** Every model of @p est: each rail's primary, then its rungs. */
std::vector<const SubsystemModel *>
modelsOf(const SystemPowerEstimator &est)
{
    std::vector<const SubsystemModel *> out;
    for (int r = 0; r < numRails; ++r) {
        out.push_back(&est.model(static_cast<Rail>(r)));
        for (const auto &rung : est.fallbacks(static_cast<Rail>(r)))
            out.push_back(rung.get());
    }
    return out;
}

TEST(SyntheticFleet, TrainedEstimatorCopiesOneFit)
{
    // Training runs once per process: a later call logs nothing and
    // returns a fresh model set whose every rung equals a new fit
    // bit for bit, with empty health.
    trainedEstimator();
    testing::internal::CaptureStderr();
    const SystemPowerEstimator copy = trainedEstimator();
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    SystemPowerEstimator fresh =
        SystemPowerEstimator::makeDegradableModelSet();
    fresh.trainAll(testutil::trainingTrace());
    const auto got = modelsOf(copy);
    const auto want = modelsOf(fresh);
    ASSERT_EQ(got.size(), want.size());
    for (size_t m = 0; m < got.size(); ++m) {
        SCOPED_TRACE(want[m]->name());
        EXPECT_EQ(got[m]->name(), want[m]->name());
        ASSERT_EQ(got[m]->trained(), want[m]->trained());
        if (!want[m]->trained())
            continue;
        const std::vector<double> a = got[m]->coefficients();
        const std::vector<double> b = want[m]->coefficients();
        ASSERT_EQ(a.size(), b.size());
        for (size_t c = 0; c < a.size(); ++c)
            EXPECT_EQ(bitsOf(a[c]), bitsOf(b[c])) << c;
    }
    for (const RailHealth &rail : copy.health().rails)
        EXPECT_EQ(rail.estimates, 0u);
}

TEST(StreamService, SteadyStateAcceptsEstimatesAndRefits)
{
    StreamConfig cfg = baseConfig();
    // Narrow counters (36 bits at 4 x 2.8e9 cycles/sample) force
    // wraps every handful of samples; the recovery must be routine.
    cfg.session.counterWidthBits = 36;
    StreamService service(cfg, trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(8, 36);

    const int rounds = 80;
    for (int round = 0; round < rounds; ++round) {
        for (int c = 0; c < 8; ++c) {
            ASSERT_EQ(service.offer(fleet.next(c, loadAt(round, c))),
                      Admission::Admitted);
        }
        service.tick(pool);
    }

    const auto sessions = service.sessionStats();
    EXPECT_EQ(sessions.baselines, 8u);
    EXPECT_EQ(sessions.accepted,
              static_cast<uint64_t>(8 * rounds - 8));
    EXPECT_GT(sessions.wraps, 0u);
    EXPECT_EQ(sessions.quarantines, 0u);

    EXPECT_EQ(service.stats().estimates, sessions.accepted);
    EXPECT_EQ(service.ingestStats().shed, 0u);
    EXPECT_EQ(service.ingestStats().overflow, 0u);

    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        const RailStatus status = service.railStatus(rail);
        EXPECT_EQ(status.state, DriftState::Healthy)
            << railName(rail);
        EXPECT_GT(status.refits, 0u) << railName(rail);
        // verifyRefits is on: every incremental refit was bitwise
        // cross-checked against the from-scratch recomputation (the
        // guarded full-QR path is exempt - it has no moment cache).
        EXPECT_EQ(status.verifiedRefits,
                  status.refits - status.fullQrRefits)
            << railName(rail);
        EXPECT_EQ(status.degradedPublishes, 0u) << railName(rail);
        EXPECT_EQ(status.unestimable, 0u) << railName(rail);
    }

    // Queue delay is tracked for estimated (accepted) samples.
    const SloSummary slo = service.slo();
    EXPECT_EQ(slo.samples, sessions.accepted);
    // Offers drain on the very next tick, so queue delay is 0 ticks.
    EXPECT_EQ(slo.p50Ticks, 0u);
    EXPECT_EQ(slo.maxTicks, 0u);
    EXPECT_GT(service.stats().evictionSweeps, 0u);
}

/** One full adversarial run; returns the facts that must agree. */
struct RunFacts
{
    uint64_t digest = 0;
    uint64_t shed = 0;
    uint64_t overflow = 0;
    uint64_t accepted = 0;
    uint64_t quarantines = 0;
    uint64_t cpuRefits = 0;
};

RunFacts
adversarialRun(int jobs)
{
    StreamConfig cfg = baseConfig();
    cfg.ingest.shards = 2;
    cfg.ingest.ringCapacity = 24;
    cfg.ingest.highWatermark = 12;
    StreamService service(cfg, trainedEstimator());
    const ExperimentPool pool(jobs);
    Fleet fleet(16, 40);

    for (int round = 0; round < 60; ++round) {
        for (int c = 0; c < 16; ++c) {
            // Client 5 turns poisonous once its baseline is primed.
            StreamSample s = fleet.next(c, loadAt(round));
            if (c == 5 && round > 0)
                s.raw.counts[0] = std::nan("");
            service.offer(s);
            // Overload bursts: everyone double-offers mid-run so the
            // rings ramp through shedding into hard overflow.
            if (round >= 20 && round < 40)
                service.offer(fleet.next(c, loadAt(round)));
        }
        service.tick(pool);
    }

    RunFacts facts;
    facts.digest = service.digest();
    facts.shed = service.ingestStats().shed;
    facts.overflow = service.ingestStats().overflow;
    facts.accepted = service.sessionStats().accepted;
    facts.quarantines = service.sessionStats().quarantines;
    facts.cpuRefits = service.railStatus(Rail::Cpu).refits;
    return facts;
}

TEST(StreamService, DigestIsBitIdenticalAcrossWorkerCounts)
{
    const RunFacts serial = adversarialRun(1);
    const RunFacts parallel = adversarialRun(4);

    // The run must actually exercise the interesting paths...
    EXPECT_GT(serial.shed, 0u);
    EXPECT_GT(serial.accepted, 0u);
    // The poison client is quarantined, idle-evicted (door-rejected
    // offers don't touch its session), returns, and is re-quarantined.
    EXPECT_GE(serial.quarantines, 1u);
    EXPECT_GT(serial.cpuRefits, 0u);

    // ...and reproduce byte-for-byte on four workers.
    EXPECT_EQ(serial.digest, parallel.digest);
    EXPECT_EQ(serial.shed, parallel.shed);
    EXPECT_EQ(serial.overflow, parallel.overflow);
    EXPECT_EQ(serial.accepted, parallel.accepted);
    EXPECT_EQ(serial.quarantines, parallel.quarantines);
    EXPECT_EQ(serial.cpuRefits, parallel.cpuRefits);
}

TEST(StreamService, QuarantinedClientIsRefusedAtTheDoorThenEvicted)
{
    StreamConfig cfg = baseConfig();
    StreamService service(cfg, trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(2, 40);

    // Prime both clients, then client 1 sends garbage until it tips
    // past the quarantine threshold of 4.
    for (int c = 0; c < 2; ++c)
        service.offer(fleet.next(c, 0.5));
    service.tick(pool);
    for (int round = 0; round < 5; ++round) {
        StreamSample bad = fleet.next(1, 0.5);
        bad.raw.counts[0] = std::nan("");
        service.offer(bad);
        service.offer(fleet.next(0, 0.5));
        service.tick(pool);
    }
    EXPECT_EQ(service.quarantinedSessions(), 1u);
    EXPECT_EQ(service.sessionStats().quarantines, 1u);

    // Now even a well-formed sample is refused before ingest.
    EXPECT_EQ(service.offer(fleet.next(1, 0.5)),
              Admission::Quarantined);
    EXPECT_GT(service.stats().quarantinedAtDoor, 0u);

    // Silence past the idle timeout: the sweep reclaims the row.
    for (int i = 0; i < 48; ++i)
        service.tick(pool);
    EXPECT_EQ(service.quarantinedSessions(), 0u);
    EXPECT_EQ(service.activeSessions(), 0u);
    EXPECT_GT(service.sessionStats().evicted, 0u);
}

TEST(StreamService, DriftEngagesFallbackThenRecovers)
{
    StreamService service(baseConfig(), trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(4, 40);

    // Phase A: healthy traffic to establish refit baselines.
    for (int round = 0; round < 64; ++round) {
        for (int c = 0; c < 4; ++c)
            service.offer(fleet.next(c, loadAt(round)));
        service.tick(pool);
    }
    ASSERT_EQ(service.railStatus(Rail::Cpu).state,
              DriftState::Healthy);
    ASSERT_GT(service.railStatus(Rail::Cpu).refits, 0u);
    ASSERT_EQ(service.railStatus(Rail::Cpu).degradedPublishes, 0u);

    // Phase B: the CPU rail's physics shift by +40 W while the
    // counters stay truthful. The detector must engage (fallback
    // publishes), the windowed refit must adapt, and the guard must
    // then walk Probation back to Healthy.
    for (int round = 0; round < 120; ++round) {
        for (int c = 0; c < 4; ++c)
            service.offer(fleet.next(c, loadAt(round), 40.0));
        service.tick(pool);
    }
    const RailStatus cpu = service.railStatus(Rail::Cpu);
    EXPECT_GE(cpu.drift.engaged, 1u);
    EXPECT_GT(cpu.degradedPublishes, 0u);
    EXPECT_GE(cpu.drift.recovered, 1u);
    EXPECT_EQ(cpu.state, DriftState::Healthy);

    // Other rails saw unchanged physics and never flinched.
    EXPECT_EQ(service.railStatus(Rail::Memory).drift.engaged, 0u);
    EXPECT_EQ(service.railStatus(Rail::Io).drift.engaged, 0u);
}

TEST(StreamService, ManifestCarriesStreamSections)
{
    StreamService service(baseConfig(), trainedEstimator());
    const ExperimentPool pool(1);
    Fleet fleet(4, 40);
    for (int round = 0; round < 40; ++round) {
        for (int c = 0; c < 4; ++c)
            service.offer(fleet.next(c, loadAt(round)));
        service.tick(pool);
    }

    obs::RunManifest manifest;
    service.addManifestSections(manifest);
    std::ostringstream os;
    manifest.writeJson(os, obs::StatsRegistry::Snapshot{});
    const std::string json = os.str();

    EXPECT_NE(json.find("\"stream.ingest\""), std::string::npos);
    EXPECT_NE(json.find("\"stream.session\""), std::string::npos);
    EXPECT_NE(json.find("\"stream.slo\""), std::string::npos);
    EXPECT_NE(json.find("\"stream.rails\""), std::string::npos);
    EXPECT_NE(json.find("\"cpu.state\""), std::string::npos);
    EXPECT_NE(json.find("healthy"), std::string::npos);
    EXPECT_NE(json.find("\"p99_ticks\""), std::string::npos);
}

TEST(StreamService, UntrainedEstimatorIsFatal)
{
    SystemPowerEstimator untrained =
        SystemPowerEstimator::makeDegradableModelSet();
    EXPECT_THROW(
        StreamService service(baseConfig(), std::move(untrained)),
        FatalError);
}

} // namespace
} // namespace stream
} // namespace tdp
