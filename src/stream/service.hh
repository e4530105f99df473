/**
 * @file
 * The hardened streaming estimation service.
 *
 * Ties the PR together: bounded sharded ingest (ring.hh/ingest.hh),
 * per-client session hygiene (session.hh), and drift-guarded
 * incremental refits (rls.hh/drift.hh) around a trained
 * SystemPowerEstimator. The contract is "degrade, never collapse":
 * overload sheds deterministically, malformed clients are quarantined,
 * a drifting model falls back to its PR 2 chain - and none of it can
 * crash, wedge or unboundedly grow the service.
 *
 * Time is a logical tick. Each tick() drains up to drainBudget
 * samples per shard in two phases:
 *
 *  - a *parallel* phase (ExperimentPool::forEach over shards) that
 *    pops, validates and stages samples. Every shard owns its ring,
 *    its SessionTable and its staging buffer, so workers share no
 *    mutable state and the staged content is bit-identical at any
 *    --jobs;
 *  - a *serial* fold that walks shards in index order: estimates,
 *    publishes, observes drift, feeds the refit windows and chains
 *    the run digest. Estimation happens here because the estimator's
 *    health accounting (and the digest) are order-sensitive.
 *
 * The digest is an FNV-1a chain over every drained sample's identity,
 * verdict and published per-rail watts plus every refit and drift
 * transition - byte-for-byte reproducible across worker counts, which
 * bench/stream_sweep asserts in every phase including forced overload
 * and full-poison quarantine.
 */

#ifndef TDP_STREAM_SERVICE_HH
#define TDP_STREAM_SERVICE_HH

#include <array>
#include <memory>
#include <vector>

#include "core/estimator.hh"
#include "exp/experiment_pool.hh"
#include "obs/run_manifest.hh"
#include "obs/stats_registry.hh"
#include "stream/drift.hh"
#include "stream/ingest.hh"
#include "stream/rls.hh"
#include "stream/session.hh"
#include "stream/telemetry.hh"

namespace tdp {
namespace stream {

class CheckpointWriter;
class CheckpointReader;

/** Full service configuration. */
struct StreamConfig
{
    IngestConfig ingest;
    SessionConfig session;
    DriftConfig drift;

    /** Rows per sealed refit block (per rail). */
    size_t refitBlockRows = 16;

    /** Sealed blocks per refit window (per rail). */
    size_t refitWindowBlocks = 6;

    /** Samples drained per shard per tick. */
    size_t drainBudget = 64;

    /** Idle-eviction sweep cadence (ticks); 0 disables sweeps. */
    uint64_t evictEveryTicks = 16;

    /**
     * Cross-check every incremental refit against a from-scratch
     * recomputation over the stored window rows and fatal() on any
     * bitwise difference. The sweep and the tests run with this on;
     * production would not.
     */
    bool verifyRefits = false;

    /**
     * Live telemetry. The flight recorder is always on; the timeline
     * ring and HDR latency windows engage when telemetry.timeline is
     * set. Neither touches the digest or stdout.
     */
    TelemetryConfig telemetry;
};

/** Queue-delay SLO summary (logical ticks, log2-bucketed). */
struct SloSummary
{
    uint64_t samples = 0;

    /** Bucket lower bounds at the quantiles. @{ */
    uint64_t p50Ticks = 0;
    uint64_t p99Ticks = 0;
    /** @} */

    uint64_t maxTicks = 0;
};

/** Streaming-side status of one rail's model. */
struct RailStatus
{
    DriftState state = DriftState::Healthy;
    double baselineRmse = 0.0;
    double lastRefitRmse = 0.0;

    /** Refits applied to the primary model. */
    uint64_t refits = 0;

    /** Of those, refits served by the guarded full-QR fallback. */
    uint64_t fullQrRefits = 0;

    /** Refits bitwise-verified against the from-scratch path. */
    uint64_t verifiedRefits = 0;

    /** Estimates published from a fallback rung. */
    uint64_t degradedPublishes = 0;

    /** Estimates where no rung produced a finite value. */
    uint64_t unestimable = 0;

    DriftStats drift;
    RlsStats rls;
};

/** The streaming estimation service. */
class StreamService
{
  public:
    /** Service-level accounting. */
    struct Stats
    {
        uint64_t ticks = 0;
        uint64_t drained = 0;
        uint64_t estimates = 0;

        /** Offers refused at the door (client quarantined). */
        uint64_t quarantinedAtDoor = 0;

        /** Idle-eviction sweeps run. */
        uint64_t evictionSweeps = 0;

        /** Checkpoints written / failed writes (checkpoint.hh). @{ */
        uint64_t checkpoints = 0;
        uint64_t checkpointFailures = 0;
        /** @} */

        /** Restores served / of those, from a fallback generation. @{ */
        uint64_t restores = 0;
        uint64_t restoreFallbacks = 0;
        /** @} */
    };

    /**
     * @param config service configuration; fatal() when malformed.
     * @param estimator a *trained* estimator (ready() must hold);
     *        typically makeDegradableModelSet() after trainAll().
     */
    StreamService(const StreamConfig &config,
                  SystemPowerEstimator estimator);

    /**
     * Offer one sample at the current tick. Quarantined clients are
     * refused at the door; everything else goes through the sharded
     * admission path.
     */
    Admission offer(const StreamSample &sample);

    /**
     * Drain, estimate, refit, evict; then advance the tick. The pool
     * parallelises the per-shard phase only - results are
     * bit-identical at any worker count.
     */
    void tick(const ExperimentPool &pool);

    /** Current logical tick. */
    uint64_t now() const { return now_; }

    /** FNV-1a chain over everything the service published. */
    uint64_t digest() const { return digest_; }

    const Stats &stats() const { return stats_; }
    const ShardedIngest::Stats &ingestStats() const
    {
        return ingest_.stats();
    }

    /** Session stats summed across shards. */
    SessionTable::Stats sessionStats() const;

    /** Live sessions across shards. */
    size_t activeSessions() const;

    /** Quarantined sessions across shards. */
    size_t quarantinedSessions() const;

    /**
     * Session-state bytes across shards (SoA columns plus flat
     * index); perfbench stream-hostile reports it per session.
     */
    size_t sessionMemoryBytes() const;

    /** Streaming-side status of one rail. */
    RailStatus railStatus(Rail rail) const;

    /** Queue-delay SLO summary. */
    SloSummary slo() const;

    const StreamConfig &config() const { return cfg_; }
    const SystemPowerEstimator &estimator() const { return est_; }

    /**
     * Flatten ingest/session/SLO/rail state into the manifest
     * sections the CI schema checks ("stream.ingest",
     * "stream.session", "stream.slo", "stream.rails").
     */
    void addManifestSections(obs::RunManifest &manifest) const;

    /** Live telemetry (timeline ring, HDR latency, flight recorder). */
    const StreamTelemetry &telemetry() const { return telemetry_; }

    /**
     * Atomically dump the telemetry state (timeline, HDR summary,
     * flight rings) to @p path; @p reason tags what triggered the
     * dump ("exit", "sigusr2", "sigterm", "quarantine", "fatal").
     */
    bool writeTimeline(const std::string &path, const std::string &tool,
                       const std::string &reason) const
    {
        return telemetry_.writeFile(path, tool, reason);
    }

    /** Regressor count of one rail's streaming refit. */
    static size_t railInputs(Rail rail);

    /** Manifest/stat key slug of one rail (lowercase, no slashes). */
    static const char *railSlug(Rail rail);

    /**
     * Checkpoint plumbing (stream/checkpoint.hh owns the format;
     * these expose the state without widening the public surface).
     * Restores require a freshly constructed service and report
     * corruption by failing the reader - never fatal(). The
     * fingerprint (configuration plus trained fallback rungs, none
     * of which change at runtime) is computed once at construction.
     * @{
     */
    uint64_t checkpointFingerprint() const { return fingerprint_; }
    void checkpointSaveIngest(CheckpointWriter &w) const;
    void checkpointSaveShard(size_t shard, CheckpointWriter &w) const;
    void checkpointSaveService(CheckpointWriter &w) const;
    bool checkpointRestoreIngest(CheckpointReader &r);
    bool checkpointRestoreShard(size_t shard, CheckpointReader &r);
    bool checkpointRestoreService(CheckpointReader &r);
    void checkpointRestoreFinish(uint64_t generation,
                                 bool usedFallback);
    /**
     * A checkpoint is noted twice: its attempt on the tick that
     * encodes it, its outcome when the write is reaped.
     */
    void noteCheckpointAttempt();
    void noteCheckpoint(uint64_t generation, uint64_t crc);
    void noteCheckpointFailure(uint64_t generation);
    /** @} */

  private:
    /** One drained sample after the parallel phase. */
    struct Staged
    {
        uint64_t client = 0;
        uint64_t seq = 0;
        uint64_t enqueueTick = 0;
        Verdict verdict = Verdict::Accepted;
        bool newlyQuarantined = false;

        /** Valid only when verdict is Accepted. @{ */
        std::array<double, numRails> measured{};
        EventVector events;
        /** @} */
    };

    /** Per-rail streaming state. */
    struct RailState
    {
        std::unique_ptr<WindowedRls> rls;
        std::unique_ptr<DriftGuard> drift;
        uint64_t refits = 0;
        uint64_t fullQrRefits = 0;
        uint64_t verifiedRefits = 0;
        uint64_t degradedPublishes = 0;
        uint64_t unestimable = 0;
        uint64_t blocksAtLastRefit = 0;
        double lastRefitRmse = 0.0;

        /** True while a fallback rung published the last estimate. */
        bool publishingFallback = false;
    };

    /** Fill out[0..railInputs(rail)) from one event vector. */
    static void railFeatures(Rail rail, const EventVector &events,
                             double *out);

    void foldDigest(uint64_t bits);
    void foldDigestDouble(double value);

    /** Serial-phase handling of one staged sample. */
    void foldStaged(int shard, const Staged &staged);

    /** Cumulative counters feeding the timeline delta windows. */
    TimelineCounters cumulativeTimelineCounters() const;

    /** Seal the timeline window ending at the current tick. */
    void sealTelemetryWindow();

    /** Refit a rail when a new block sealed since the last refit. */
    void maybeRefit(Rail rail);

    /** Push a fit into the rail's primary model. */
    void applyCoefficients(Rail rail, const FitResult &fit);

    /** Hash of what a checkpoint must match to restore. */
    uint64_t computeCheckpointFingerprint() const;

    StreamConfig cfg_;
    SystemPowerEstimator est_;
    ShardedIngest ingest_;
    std::vector<SessionTable> sessions_;

    /**
     * Per-shard staging, sized to drainBudget once at construction
     * and written in place each tick (stagedCount_[s] live entries):
     * the accepted-sample drain path performs zero heap allocations
     * in steady state because every Staged slot's EventVector and the
     * per-shard AlignedSample scratch reuse their capacity.
     */
    std::vector<std::vector<Staged>> staged_;
    std::vector<size_t> stagedCount_;
    std::vector<AlignedSample> alignedScratch_;

    std::array<RailState, numRails> rails_;

    /**
     * Reused flattened-coefficient buffer (applyCoefficients and the
     * checkpoint encode), so neither allocates once warm.
     */
    mutable std::vector<double> coefScratch_;

    uint64_t now_ = 0;
    uint64_t digest_;
    Stats stats_;

    /** Checkpoints encoded whose outcome is not yet noted (0 or 1). */
    uint64_t checkpointsInFlight_ = 0;

    /** Deterministic queue-delay histogram (log2 ticks). */
    std::array<uint64_t, obs::histogramBuckets> latency_{};
    uint64_t latencyCount_ = 0;
    uint64_t latencyMax_ = 0;

    /** StatsRegistry mirrors (no-ops while the registry is off). @{ */
    obs::StatId idOffered_, idAdmitted_, idShed_, idOverflow_;
    obs::StatId idAccepted_, idInvalid_, idQuarantines_, idEvicted_;
    obs::StatId idLatency_, idRefits_, idDriftEngaged_,
        idDriftRecovered_;
    /** @} */

    /**
     * Always-constructed telemetry: the flight recorder runs
     * unconditionally; timeline/HDR record only when enabled. All
     * recording happens on the serial path, so it is deterministic
     * and allocation-free in steady state.
     */
    StreamTelemetry telemetry_;

    /** computeCheckpointFingerprint(), fixed at construction. */
    uint64_t fingerprint_;
};

} // namespace stream
} // namespace tdp

#endif // TDP_STREAM_SERVICE_HH
