/**
 * @file
 * Streaming-service sweep: drives the hardened streaming estimator
 * (src/stream/) through 12 workload load-shapes x 5 adversarial
 * phases and asserts the whole thing is deterministic - the service
 * digest (every drained sample's verdict, every published watt,
 * every refit and drift transition) must be byte-identical at
 * --jobs 1 and --jobs N in *every* phase, including forced overload
 * (shedding + hard overflow), full-poison (every client quarantined)
 * and drift (per-rail fallback engagement and recovery).
 *
 * Phases per workload:
 *
 *  1. steady   - in-budget traffic; refits verified bitwise against
 *                the from-scratch window recomputation (verifyRefits);
 *  2. overload - tight rings + small drain budget under burst
 *                traffic; deterministic shedding, hard overflow and
 *                nonzero queue-delay percentiles;
 *  3. stall    - half the fleet goes silent mid-phase (idle-timeout
 *                eviction) and returns as fresh sessions;
 *  4. poison   - every client turns malicious after its baseline
 *                (deterministic hashed per-client faults:
 *                NaN counters, duplicate and stale sequence numbers);
 *                the full fleet must end quarantined with the service
 *                still live;
 *  5. drift    - the CPU rail's physics shift mid-phase; the drift
 *                guard must engage the fallback chain, the windowed
 *                refit must adapt, and the rail must be re-promoted.
 *
 * What each phase must exercise is pinned twice: exactly, by the
 * summed counters gated in BENCH_bm_stream.json, and per mechanism
 * by tests/stream (ShardedIngest.*, StreamService.*). Checkpoint
 * restore is proven by tests/stream/test_checkpoint.cc and perfbench
 * stream-hostile, not here.
 *
 * The drift-phase service of the last workload contributes the
 * stream.* manifest sections (ingest, session, SLO, per-rail model
 * state) that scripts/validate_manifest.py --require-stream checks
 * in CI. Deterministic totals are reported as exact-gated metrics in
 * BENCH_bm_stream.json; wall-clock throughput rides along ungated.
 *
 * With --timeline-out (or TDP_TIMELINE_OUT) the per-phase services
 * run with the tick-indexed telemetry timeline enabled: the dump
 * file is refreshed at the end of every parallel phase (reason
 * "exit"), on SIGTERM drain ("sigterm", alongside partial stream.*
 * manifest sections and exit code 113) and on a mid-sweep fatal
 * ("fatal"); SIGUSR2 writes a `.sigusr2` side file mid-run and the
 * first quarantine writes a `.quarantine` side file. The timeline
 * digest joins the serial-vs-parallel comparison, and a telemetry
 * off/on A/B pass reports the ceiling-gated telemetry_overhead_ratio
 * metric (min over alternated pairs, limit 1.05). Without the flag
 * none of this runs and stdout is byte-identical to a build without
 * the telemetry code.
 *
 * Flags (after the shared bench flags, see bench_util.hh):
 *   --stream PHASES   comma list of phases to run (default: all)
 *   --clients N       fleet size per workload, 2..4096
 *                                               [TDP_STREAM_CLIENTS]
 *   --rounds N        rounds per phase          [TDP_STREAM_ROUNDS]
 *   --window N        refit window blocks       [TDP_STREAM_WINDOW]
 *   --seed V          admission/shed hash seed  [TDP_STREAM_SEED]
 *
 * --clients is capped at 4096, the fleet perfbench stream-hostile
 * serves: the sweep is a correctness harness that replays every
 * phase twice (serial + parallel reference). --clients also
 * interacts with --window: refit blocks seal every refitBlockRows
 * *accepted* samples, so a small fleet fills a wide window slowly
 * and early refits run on a partial window (fewer sealed blocks than
 * --window) - more clients per round means more sealed blocks and
 * tighter refit cadence at the same --window.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_util.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "resilience/retry.hh"
#include "stream/service.hh"
#include "stream/synthetic.hh"

namespace {

using namespace tdp;
using namespace tdp::bench;
using stream::RailStatus;
using stream::StreamConfig;
using stream::StreamSample;
using stream::StreamService;

/**
 * Exit code of a drained, flushed abort. Distinct from 0 (success),
 * 1 (fatal error) and 128+signum (unhandled signal), so callers can
 * tell "aborted cleanly" from both.
 */
constexpr int cleanAbortExitCode = 113;

/**
 * Raised by the signal handlers, polled between ticks. The handlers
 * are async-signal-safe: a relaxed store to a lock-free atomic is all
 * they do. @{
 */
std::atomic<bool> shutdownRequested{false}; ///< SIGINT / SIGTERM
std::atomic<bool> dumpRequested{false};     ///< SIGUSR2
/** @} */

extern "C" void
onShutdownSignal(int)
{
    shutdownRequested.store(true, std::memory_order_relaxed);
}

extern "C" void
onDumpSignal(int)
{
    dumpRequested.store(true, std::memory_order_relaxed);
}

/** Route SIGINT/SIGTERM to a drain and SIGUSR2 to a mid-run dump. */
void
installSignalHandlers()
{
    struct sigaction action = {};
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0; // no SA_RESTART: interrupt blocking reads
    action.sa_handler = onShutdownSignal;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
    action.sa_handler = onDumpSignal;
    sigaction(SIGUSR2, &action, nullptr);
}

/** One workload: a deterministic load shape u(round, client). */
struct Workload
{
    const char *name;
    double base;
    double amplitude;
    int period;
};

/** The paper's 12-workload suite mapped onto load shapes. */
const std::vector<Workload> suite = {
    {"idle", 0.02, 0.02, 8},     {"gcc", 0.55, 0.35, 12},
    {"mcf", 0.45, 0.40, 9},      {"vortex", 0.60, 0.25, 15},
    {"dbt2", 0.35, 0.30, 7},     {"specjbb", 0.70, 0.25, 11},
    {"art", 0.65, 0.30, 13},     {"lucas", 0.50, 0.45, 10},
    {"mesa", 0.40, 0.35, 14},    {"mgrid", 0.55, 0.40, 8},
    {"wupwise", 0.60, 0.30, 16}, {"diskload", 0.30, 0.25, 6}};

/** The five grid phases, in run order. */
const std::vector<std::string> allPhases = {
    "steady", "overload", "stall", "poison", "drift"};

/**
 * Correctness-sweep fleet ceiling: each phase runs twice per
 * workload, so the sweep scales as 2 x 12 x 5 x clients x rounds.
 * 4096 is the fleet perfbench stream-hostile measures.
 */
constexpr int maxSweepClients = 4096;

struct SweepOptions
{
    int clients = 12;
    int rounds = 32;
    int windowBlocks = 4;
    uint64_t seed = 0x5eedc4a7;
    std::vector<std::string> phases = allPhases;
};

/** Load of one client at one round: triangular wave per workload. */
double
loadOf(const Workload &w, int round, int client)
{
    const int p = w.period;
    const int phase = round % (2 * p);
    const double tri =
        phase < p ? static_cast<double>(phase) / p
                  : static_cast<double>(2 * p - phase) / p;
    double u = (w.base + w.amplitude * tri) *
               (0.75 + 0.02 * (client % 8));
    if (u < 0.0)
        u = 0.0;
    if (u > 1.0)
        u = 1.0;
    return u;
}

/**
 * The service whose telemetry a mid-run dump (SIGUSR2, SIGTERM,
 * fatal) snapshots. Phases run strictly one at a time on the main
 * thread, so a plain pointer to the live service is safe; it is
 * cleared before the service goes out of scope.
 */
const StreamService *liveService = nullptr;

/** One `.quarantine` dump per process: first quarantine wins. */
bool quarantineDumped = false;

/** True when --timeline-out / TDP_TIMELINE_OUT enabled telemetry. */
bool
timelineActive()
{
    return !timelineOutPath().empty();
}

/**
 * Poll the async-signal flags between ticks. SIGUSR2 dumps the live
 * telemetry to a side file and continues; SIGTERM flushes whatever
 * the live service has seen so far - partial stream.* manifest
 * sections and the timeline - then exits with the clean-abort code
 * so postmortems of drained runs are never empty.
 */
void
pollSignals(const StreamService &service)
{
    if (dumpRequested.load(std::memory_order_relaxed)) {
        if (timelineActive())
            service.writeTimeline(timelineOutPath() + ".sigusr2",
                                  "bm_stream", "sigusr2");
        dumpRequested.store(false, std::memory_order_relaxed);
    }
    if (!shutdownRequested.load(std::memory_order_relaxed))
        return;
    if (observabilityEnabled()) {
        service.addManifestSections(runManifest());
        if (timelineActive())
            service.writeTimeline(timelineOutPath(), "bm_stream",
                                  "sigterm");
        flushObservability();
    }
    std::exit(cleanAbortExitCode);
}

/**
 * Digest of every sealed timeline window, folded bytewise (sealing
 * zeroes the padding). Part of PhaseResult, so the sweep's serial
 * vs parallel comparison also proves the *telemetry* is
 * byte-identical at any worker count. 0 when the timeline is off.
 */
uint64_t
timelineDigestOf(const StreamService &service)
{
    uint64_t digest = fnv1aBasis;
    service.telemetry().timeline().forEach(
        [&](const stream::TimelineWindow &w) {
            digest = fnv1a64(&w, sizeof w, digest);
        });
    return digest;
}

/** Everything a phase run must reproduce at any worker count. */
struct PhaseResult
{
    uint64_t digest = 0;
    uint64_t timelineDigest = 0;
    uint64_t offered = 0;
    uint64_t shed = 0;
    uint64_t overflow = 0;
    uint64_t accepted = 0;
    uint64_t invalid = 0;
    uint64_t quarantines = 0;
    uint64_t evicted = 0;
    uint64_t refits = 0;
    uint64_t verifiedRefits = 0;
    uint64_t driftEngaged = 0;
    uint64_t driftRecovered = 0;
    uint64_t p99Ticks = 0;
};

StreamConfig
phaseConfig(const SweepOptions &opt, size_t workload,
            const std::string &phase)
{
    StreamConfig cfg;
    cfg.ingest.shards = 4;
    cfg.ingest.ringCapacity = 256;
    cfg.ingest.highWatermark = 224;
    cfg.ingest.seed = opt.seed ^ (workload * 0x9e3779b9u);
    cfg.session.counterWidthBits = 40;
    cfg.session.idleTimeoutTicks = 64;
    cfg.session.quarantineThreshold = 4;
    cfg.session.wattsWindow = 8;
    cfg.drift.window = 16;
    cfg.drift.factor = 3.0;
    cfg.drift.floorWatts = 0.5;
    cfg.drift.healthyWindows = 2;
    cfg.refitBlockRows = 8;
    cfg.refitWindowBlocks =
        static_cast<size_t>(opt.windowBlocks);
    cfg.drainBudget = 64;
    cfg.evictEveryTicks = 16;
    cfg.verifyRefits = true;
    // The flight recorder is always on; the timeline ring + HDR
    // latency windows engage only when a dump path was configured.
    cfg.telemetry.timeline = timelineActive();
    cfg.telemetry.windowTicks = 16;

    if (phase == "overload") {
        // Tight rings and a small drain budget: the burst traffic
        // must ramp through shedding into hard overflow, and queued
        // samples must age enough to move the p99 latency.
        cfg.ingest.shards = 2;
        cfg.ingest.ringCapacity = 16;
        cfg.ingest.highWatermark = 8;
        cfg.drainBudget = 4;
    } else if (phase == "stall") {
        cfg.session.idleTimeoutTicks = 6;
        cfg.evictEveryTicks = 4;
    }
    return cfg;
}

/** Deterministic per-(client, round) fault decision. */
bool
chaosHit(uint64_t seed, uint64_t client, uint64_t round,
         double probability)
{
    return resilience::hashUnit(seed ^ 0xc4a05u, client, round) <
           probability;
}

/**
 * Generate every sample of one round and offer it to @p service.
 * Returns the number of samples offered.
 */
uint64_t
offerRound(const SweepOptions &opt, size_t workload,
           const std::string &phase, const StreamConfig &cfg,
           stream::synthetic::Fleet &fleet, int round,
           StreamService &service)
{
    const Workload &w = suite[workload];
    const int half = opt.rounds / 2;
    uint64_t offered = 0;
    for (int c = 0; c < opt.clients; ++c) {
        const double u = loadOf(w, round, c);
        if (phase == "stall" && c < opt.clients / 2 &&
            round >= half / 2 && round < half + half / 2)
            continue; // half the fleet goes silent mid-phase

        const double shift =
            phase == "drift" && round >= half ? 35.0 : 0.0;
        StreamSample sample = fleet.next(c, u, shift);
        if (phase == "poison" && round >= 2) {
            // Full poison: every client misbehaves, with the
            // fault class hashed per (client, round) so the run
            // is reproducible at any worker count.
            if (chaosHit(cfg.ingest.seed, sample.client, round,
                         0.5)) {
                sample.raw.counts[0] = std::nan("");
            } else if (chaosHit(cfg.ingest.seed ^ 1, sample.client,
                                round, 0.5)) {
                sample.seq = 1; // stale sequence number
            } else {
                sample.time = 0.0; // stale timestamp
            }
        }
        ++offered;
        service.offer(sample);
        if (phase == "overload") {
            // Burst: four extra offers per client per round.
            for (int burst = 0; burst < 4; ++burst) {
                ++offered;
                service.offer(fleet.next(c, u));
            }
        }
    }
    return offered;
}

/** Fill the service-derived fields of a PhaseResult. */
void
capturePhaseTotals(const StreamService &service, PhaseResult &result)
{
    result.digest = service.digest();
    result.timelineDigest = timelineDigestOf(service);
    result.shed = service.ingestStats().shed;
    result.overflow = service.ingestStats().overflow;
    const auto sessions = service.sessionStats();
    result.accepted = sessions.accepted;
    result.invalid = sessions.nonFinite + sessions.outOfRange +
                     sessions.duplicateSeq + sessions.outOfOrderSeq +
                     sessions.staleTime + sessions.zeroCycles;
    result.quarantines = sessions.quarantines;
    result.evicted = sessions.evicted;
    for (int r = 0; r < numRails; ++r) {
        const RailStatus status =
            service.railStatus(static_cast<Rail>(r));
        result.refits += status.refits;
        result.verifiedRefits += status.verifiedRefits;
        result.driftEngaged += status.drift.engaged;
        result.driftRecovered += status.drift.recovered;
    }
    result.p99Ticks = service.slo().p99Ticks;
}

PhaseResult
runPhase(const SweepOptions &opt, size_t workload,
         const std::string &phase, int jobs)
{
    StreamConfig cfg = phaseConfig(opt, workload, phase);
    StreamService service(cfg, stream::synthetic::trainedEstimator());
    const ExperimentPool pool(jobs);
    stream::synthetic::Fleet fleet(opt.clients, 40);
    liveService = &service;

    // Between-tick bookkeeping: answer SIGUSR2/SIGTERM promptly, and
    // snapshot the flight recorder the first time a client lands in
    // quarantine (the `.quarantine` side file survives the exit
    // overwrite of the main dump).
    const auto afterTick = [&] {
        pollSignals(service);
        if (timelineActive() && !quarantineDumped &&
            service.sessionStats().quarantines > 0) {
            quarantineDumped = true;
            service.writeTimeline(timelineOutPath() + ".quarantine",
                                  "bm_stream", "quarantine");
        }
    };

    PhaseResult result;
    for (int round = 0; round < opt.rounds; ++round) {
        result.offered += offerRound(opt, workload, phase, cfg, fleet,
                                     round, service);
        service.tick(pool);
        afterTick();
    }
    // Drain the backlog the overload phase leaves in the rings.
    for (int i = 0; i < 64; ++i) {
        service.tick(pool);
        afterTick();
    }

    capturePhaseTotals(service, result);

    // The last workload's drift-phase service carries the stream.*
    // manifest sections CI validates (drift engagement + recovery
    // visible in stream.rails).
    if (observabilityEnabled() && phase == "drift" &&
        workload + 1 == suite.size() && jobs > 1)
        service.addManifestSections(runManifest());
    // Every parallel run refreshes the exit dump; the last completed
    // phase wins, so the file always holds a full, current snapshot.
    if (timelineActive() && jobs > 1)
        service.writeTimeline(timelineOutPath(), "bm_stream", "exit");
    liveService = nullptr;
    return result;
}

void
assertSamePhase(const PhaseResult &serial, const PhaseResult &wide,
                const char *workload, const std::string &phase,
                int jobs)
{
    if (serial.digest != wide.digest)
        fatal("stream_sweep: %s/%s digest diverged between --jobs 1 "
              "(%016llx) and --jobs %d (%016llx)",
              workload, phase.c_str(),
              static_cast<unsigned long long>(serial.digest), jobs,
              static_cast<unsigned long long>(wide.digest));
    if (std::memcmp(&serial, &wide, sizeof serial) != 0)
        fatal("stream_sweep: %s/%s counters diverged between worker "
              "counts",
              workload, phase.c_str());
}

/**
 * One timed leg of the telemetry-overhead A/B: a steady gcc-shaped
 * workload driven through a fresh single-worker service with the
 * timeline either off or on. Refit verification is disabled so the
 * measurement covers the service hot path, not the bitwise refit
 * checker.
 */
double
overheadLeg(const SweepOptions &opt, bool timeline, uint64_t *digest)
{
    StreamConfig cfg = phaseConfig(opt, 1, "steady");
    cfg.verifyRefits = false;
    cfg.telemetry.timeline = timeline;
    StreamService service(cfg, stream::synthetic::trainedEstimator());
    const ExperimentPool pool(1);
    const int clients = 192;
    const int rounds = 96;
    stream::synthetic::Fleet fleet(clients, 40);
    const Workload &w = suite[1];

    const auto start = std::chrono::steady_clock::now();
    for (int round = 0; round < rounds; ++round) {
        for (int c = 0; c < clients; ++c)
            service.offer(fleet.next(c, loadOf(w, round, c)));
        service.tick(pool);
    }
    for (int i = 0; i < 16; ++i)
        service.tick(pool);
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    *digest = service.digest();
    return seconds;
}

/**
 * Telemetry-on vs telemetry-off wall-clock ratio, taken as the MIN
 * over alternated off/on pairs. Scheduler noise on a busy box only
 * ever inflates a leg, so the smallest observed ratio is the
 * tightest sound estimate of the true overhead; a mean would gate on
 * the noise instead. The off and on legs must produce the same
 * digest - telemetry never touches the estimation path.
 */
double
measureTelemetryOverhead(const SweepOptions &opt)
{
    uint64_t warm = 0;
    overheadLeg(opt, false, &warm); // warm caches outside the pairs
    double best = 0.0;
    const int pairs = 3;
    for (int pair = 0; pair < pairs; ++pair) {
        uint64_t offDigest = 0;
        uint64_t onDigest = 0;
        const double off = overheadLeg(opt, false, &offDigest);
        const double on = overheadLeg(opt, true, &onDigest);
        if (offDigest != onDigest)
            fatal("stream_sweep: enabling telemetry changed the "
                  "service digest (%016llx off, %016llx on) - "
                  "telemetry must never touch the estimation path",
                  static_cast<unsigned long long>(offDigest),
                  static_cast<unsigned long long>(onDigest));
        const double ratio = off > 0.0 ? on / off : 1.0;
        if (best == 0.0 || ratio < best)
            best = ratio;
    }
    emitStats("stream_sweep: telemetry overhead ratio %.4f "
              "(min of %d off/on pairs)",
              best, pairs);
    return best;
}

SweepOptions
parseOptions(const std::vector<std::string> &args)
{
    SweepOptions opt;
    const auto envCount = [](const char *name, int &out) {
        if (const char *env = std::getenv(name))
            out = parsePositiveValue(name, env);
    };
    envCount("TDP_STREAM_CLIENTS", opt.clients);
    envCount("TDP_STREAM_ROUNDS", opt.rounds);
    envCount("TDP_STREAM_WINDOW", opt.windowBlocks);
    if (const char *env = std::getenv("TDP_STREAM_SEED"))
        opt.seed = std::strtoull(env, nullptr, 0);

    for (size_t i = 0; i < args.size(); ++i) {
        // Every option is spelt `--flag VALUE` or `--flag=VALUE`.
        const std::string &arg = args[i];
        const auto is = [&](const std::string &flag) {
            return arg == flag || startsWith(arg, flag + "=");
        };
        const auto value = [&](const std::string &flag) -> std::string {
            if (arg != flag)
                return arg.substr(flag.size() + 1);
            if (i + 1 >= args.size())
                usageError(flag + " needs a value");
            return args[++i];
        };
        const auto count = [&](const std::string &flag) {
            return parsePositiveValue(flag.c_str(), value(flag).c_str());
        };
        if (is("--clients")) {
            opt.clients = count("--clients");
        } else if (is("--rounds")) {
            opt.rounds = count("--rounds");
        } else if (is("--window")) {
            opt.windowBlocks = count("--window");
        } else if (is("--seed")) {
            opt.seed = std::strtoull(value("--seed").c_str(), nullptr, 0);
        } else if (is("--stream")) {
            opt.phases.clear();
            for (const std::string &phase : split(value("--stream"), ',')) {
                if (phase.empty())
                    continue;
                if (std::find(allPhases.begin(), allPhases.end(),
                              phase) == allPhases.end())
                    usageError("unknown phase '" + phase + "'");
                opt.phases.push_back(phase);
            }
            if (opt.phases.empty())
                usageError("--stream selected no phases");
        } else {
            usageError("unknown argument '" + arg + "'");
        }
    }
    if (opt.clients < 2)
        usageError("need at least 2 clients");
    if (opt.clients > maxSweepClients)
        usageError(formatString(
            "--clients %d exceeds the %d ceiling. "
            "This sweep replays every workload/phase pair twice "
            "(serial + parallel reference) with refit "
            "verification on, so large fleets multiply into hours; "
            "%d is the fleet perfbench stream-hostile serves",
            opt.clients, maxSweepClients, maxSweepClients));
    if (opt.rounds < 8)
        usageError("need at least 8 rounds");
    return opt;
}

int
runSweep(int argc, char **argv)
{
    const SweepOptions opt = parseOptions(positionalArgs(argc, argv));
    const int wide = jobs() > 1 ? jobs() : 2;

    std::printf("Stream sweep: hardened streaming estimation "
                "service\n");
    std::printf("suite: %zu workloads x %zu phases, %d clients, %d "
                "rounds, window %d blocks\n\n",
                suite.size(), opt.phases.size(), opt.clients,
                opt.rounds, opt.windowBlocks);

    const int reps = benchRepetitions();
    std::vector<double> throughput, wallSeconds;
    PhaseResult totals;
    uint64_t digestChain = 0;

    for (int rep = 0; rep < reps; ++rep) {
        PhaseResult sum;
        uint64_t chain = fnv1aBasis;
        const auto start = std::chrono::steady_clock::now();
        for (size_t wl = 0; wl < suite.size(); ++wl) {
            for (const std::string &phase : opt.phases) {
                if (rep == 0) {
                    std::printf("  [%2zu/%zu] %-8s %-8s\n", wl + 1,
                                suite.size(), suite[wl].name,
                                phase.c_str());
                    std::fflush(stdout);
                }
                const PhaseResult serial = runPhase(opt, wl, phase, 1);
                const PhaseResult parallel =
                    runPhase(opt, wl, phase, wide);
                assertSamePhase(serial, parallel, suite[wl].name,
                                phase, wide);
                chain = fnv1a64(&serial.digest,
                                sizeof serial.digest, chain);
                sum.offered += serial.offered;
                sum.shed += serial.shed;
                sum.overflow += serial.overflow;
                sum.accepted += serial.accepted;
                sum.invalid += serial.invalid;
                sum.quarantines += serial.quarantines;
                sum.evicted += serial.evicted;
                sum.refits += serial.refits;
                sum.verifiedRefits += serial.verifiedRefits;
                sum.driftEngaged += serial.driftEngaged;
                sum.driftRecovered += serial.driftRecovered;
            }
        }
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        // Each phase ran twice (serial + parallel reference).
        throughput.push_back(
            seconds > 0.0
                ? static_cast<double>(2 * sum.offered) / seconds
                : 0.0);
        wallSeconds.push_back(seconds);
        if (rep == 0) {
            totals = sum;
            digestChain = chain;
        } else if (chain != digestChain) {
            fatal("stream_sweep: repetition %d produced a different "
                  "digest chain - the sweep is not deterministic",
                  rep + 1);
        }
    }

    std::printf("digest chain     %016llx (identical at --jobs 1 "
                "and --jobs %d, %d repetition(s))\n",
                static_cast<unsigned long long>(digestChain), wide,
                reps);
    std::printf("offered          %llu\n",
                static_cast<unsigned long long>(totals.offered));
    std::printf("accepted         %llu\n",
                static_cast<unsigned long long>(totals.accepted));
    std::printf("shed/overflow    %llu/%llu\n",
                static_cast<unsigned long long>(totals.shed),
                static_cast<unsigned long long>(totals.overflow));
    std::printf("invalid          %llu\n",
                static_cast<unsigned long long>(totals.invalid));
    std::printf("quarantines      %llu\n",
                static_cast<unsigned long long>(totals.quarantines));
    std::printf("evicted          %llu\n",
                static_cast<unsigned long long>(totals.evicted));
    std::printf("refits           %llu (%llu verified bitwise)\n",
                static_cast<unsigned long long>(totals.refits),
                static_cast<unsigned long long>(
                    totals.verifiedRefits));
    std::printf("drift            %llu engaged, %llu recovered\n",
                static_cast<unsigned long long>(totals.driftEngaged),
                static_cast<unsigned long long>(
                    totals.driftRecovered));

    const auto exact = [](const char *name, double value,
                          int reps_count) {
        MetricSeries series;
        series.name = name;
        series.values.assign(static_cast<size_t>(reps_count), value);
        series.unit = "count";
        series.gate = true;
        series.direction = "exact";
        return series;
    };
    std::vector<MetricSeries> metrics;
    metrics.push_back(exact("offered", double(totals.offered), reps));
    metrics.push_back(
        exact("accepted", double(totals.accepted), reps));
    metrics.push_back(exact("shed", double(totals.shed), reps));
    metrics.push_back(
        exact("overflow", double(totals.overflow), reps));
    metrics.push_back(
        exact("quarantines", double(totals.quarantines), reps));
    metrics.push_back(exact("evicted", double(totals.evicted), reps));
    metrics.push_back(exact("refits", double(totals.refits), reps));
    metrics.push_back(exact("drift_engaged",
                            double(totals.driftEngaged), reps));
    metrics.push_back(exact("drift_recovered",
                            double(totals.driftRecovered), reps));

    MetricSeries tput;
    tput.name = "ingest_samples_per_s";
    tput.values = throughput;
    tput.unit = "samples/s";
    tput.gate = false;
    tput.direction = "higher";
    metrics.push_back(tput);
    MetricSeries wall;
    wall.name = "sweep_seconds";
    wall.values = wallSeconds;
    wall.unit = "s";
    wall.gate = false;
    wall.direction = "lower";
    metrics.push_back(wall);

    if (timelineActive()) {
        // Ceiling-gated: telemetry on must stay within 5% of off.
        // Only measured (and only present in the JSON) when a
        // timeline path is configured, matching how the committed
        // baseline is produced.
        MetricSeries overhead;
        overhead.name = "telemetry_overhead_ratio";
        overhead.values = {measureTelemetryOverhead(opt)};
        overhead.unit = "x";
        overhead.gate = true;
        overhead.direction = "ceiling";
        overhead.limit = 1.05;
        metrics.push_back(overhead);
    }

    const std::string path = writeBenchSeries("bm_stream", metrics);
    std::printf("\nwrote %s\n", path.c_str());
    std::printf("stream sweep: all checks passed\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv);
    installSignalHandlers();
    try {
        return runSweep(argc, argv);
    } catch (const FatalError &) {
        // A fatal mid-sweep still leaves a postmortem: dump the live
        // service's telemetry, then let the error terminate the
        // process exactly as before.
        if (liveService != nullptr && timelineActive())
            liveService->writeTimeline(timelineOutPath(), "bm_stream",
                                       "fatal");
        throw;
    }
}
