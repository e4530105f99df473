/**
 * @file
 * The stream workload, stream-hostile: a StreamService fed by a
 * synthetic fleet in an open loop over logical time (every tick offers
 * a fixed number of samples, however long the previous tick took). The
 * cache-resident fleet is offered at twice the drain budget (shed and
 * overflow), with a rotating set of poisoned clients (quarantine),
 * periodic CPU drift (refits, fallback publishes), periodic checkpoints
 * and one final restore.
 */

#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>

#include "core/validator.hh"
#include "exp/experiment_pool.hh"
#include "harness.hh"
#include "obs/span_tracer.hh"
#include "resilience/retry.hh"
#include "stream/checkpoint.hh"
#include "stream/service.hh"
#include "stream/synthetic.hh"

namespace perfbench {

namespace {

using namespace tdp;
using stream::StreamCheckpointer;
using stream::StreamConfig;
using stream::StreamSample;
using stream::StreamService;

/** Everything that shapes the stream workload. */
struct StreamLoad
{
    StreamConfig config;
    int clients = 0;
    int offersPerTick = 0;

    /**
     * Experiment-pool workers. Ticks last a fraction of a millisecond,
     * where waking idle workers for every pool call would swamp the
     * measured layers with host noise; the output check compares
     * against otherWorkers.
     */
    int workers = 1;
    static constexpr int otherWorkers = 4;

    /** Share of clients poisoned in each poison epoch. */
    double poisonShare = 0.0;

    /** Ticks per drift period; the second half shifts CPU watts. */
    uint64_t driftPeriod = 0;
    double driftWatts = 35.0;

    /** Checkpoint cadence in ticks. */
    uint64_t checkpointEvery = 0;

    /** Timed ticks after which the exact counters are taken. */
    uint64_t prefixTicks = 0;

    /** Fleet client-id base, from the seed. */
    uint64_t baseClient = 100;
};

/** Per-client triangular load sweep with a client-specific period. */
double
loadOf(uint64_t sample, uint64_t client)
{
    const uint64_t p = 5 + client % 7;
    const uint64_t phase = (sample + client % p) % (2 * p);
    const double tri = phase < p ? static_cast<double>(phase) / p
                                 : static_cast<double>(2 * p - phase) / p;
    return 0.05 + 0.9 * tri;
}

StreamLoad
hostileLoad(uint64_t master)
{
    StreamLoad load;
    StreamConfig &cfg = load.config;
    cfg.ingest.shards = 4;
    cfg.drainBudget = 64;
    // A narrow shed ramp: arrivals outrun it into hard overflow.
    cfg.ingest.ringCapacity = 128;
    cfg.ingest.highWatermark = 112;
    cfg.ingest.seed = master ^ 0x4057113ull;
    cfg.session.counterWidthBits = 34; // frequent wraps
    cfg.session.idleTimeoutTicks = 64;
    cfg.session.quarantineThreshold = 4;
    cfg.session.wattsWindow = 8;
    cfg.drift.window = 16;
    cfg.drift.factor = 3.0;
    cfg.drift.floorWatts = 0.5;
    cfg.drift.healthyWindows = 2;
    cfg.refitBlockRows = 8;
    cfg.refitWindowBlocks = 6;
    cfg.evictEveryTicks = 16;
    load.workers = 1;
    load.clients = 4096;
    // Twice the aggregate drain budget: past the high watermark.
    load.offersPerTick =
        static_cast<int>(2 * cfg.ingest.shards * cfg.drainBudget);
    load.poisonShare = 0.03;
    load.driftPeriod = 1024;
    load.checkpointEvery = 64;
    load.prefixTicks = 2048;
    load.baseClient = 100 + (master % 1000003);
    return load;
}

/** The deterministic counters a stream run must reproduce. */
struct StreamCounts
{
    uint64_t digest = 0;
    uint64_t tick = 0;
    uint64_t offered = 0;
    uint64_t shed = 0;
    uint64_t overflow = 0;
    uint64_t refused = 0;
    uint64_t accepted = 0;
    uint64_t invalid = 0;
    uint64_t quarantines = 0;
    uint64_t evicted = 0;
    uint64_t estimates = 0;
    uint64_t refits = 0;
    uint64_t fullQrRefits = 0;
    uint64_t fallbackPublishes = 0;
    uint64_t driftEngaged = 0;
    uint64_t checkpoints = 0;

    bool
    operator==(const StreamCounts &o) const
    {
        return std::memcmp(this, &o, sizeof *this) == 0;
    }

    /** Field-wise difference (the counters are cumulative). */
    StreamCounts
    operator-(const StreamCounts &o) const
    {
        StreamCounts d;
        d.offered = offered - o.offered;
        d.shed = shed - o.shed;
        d.overflow = overflow - o.overflow;
        d.refused = refused - o.refused;
        d.accepted = accepted - o.accepted;
        d.invalid = invalid - o.invalid;
        d.quarantines = quarantines - o.quarantines;
        d.evicted = evicted - o.evicted;
        d.estimates = estimates - o.estimates;
        d.refits = refits - o.refits;
        d.fullQrRefits = fullQrRefits - o.fullQrRefits;
        d.fallbackPublishes = fallbackPublishes - o.fallbackPublishes;
        d.driftEngaged = driftEngaged - o.driftEngaged;
        d.checkpoints = checkpoints - o.checkpoints;
        return d;
    }
};

StreamCounts
countsOf(const StreamService &service)
{
    StreamCounts c;
    c.digest = service.digest();
    c.tick = service.now();
    c.offered = service.ingestStats().offered +
                service.stats().quarantinedAtDoor;
    c.shed = service.ingestStats().shed;
    c.overflow = service.ingestStats().overflow;
    c.refused = service.stats().quarantinedAtDoor;
    const auto sessions = service.sessionStats();
    c.accepted = sessions.accepted;
    c.invalid = sessions.nonFinite + sessions.outOfRange +
                sessions.duplicateSeq + sessions.outOfOrderSeq +
                sessions.staleTime + sessions.zeroCycles;
    c.quarantines = sessions.quarantines;
    c.evicted = sessions.evicted;
    c.estimates = service.stats().estimates;
    for (int r = 0; r < numRails; ++r) {
        const stream::RailStatus s = service.railStatus(static_cast<Rail>(r));
        c.refits += s.refits;
        c.fullQrRefits += s.fullQrRefits;
        c.fallbackPublishes += s.degradedPublishes;
        c.driftEngaged += s.drift.engaged;
    }
    c.checkpoints = service.stats().checkpoints;
    return c;
}

/**
 * A running service and the generator feeding it. Offers for one
 * tick are generated before the step is timed, so a step is exactly
 * that tick's offers, tick() and the checkpoint hook.
 */
class StreamRun
{
  public:
    StreamRun(const StreamLoad &load, int jobs, uint64_t master,
              const std::string &checkpoint_base)
        : load_(load), master_(master), pool_(jobs),
          service_(std::make_unique<StreamService>(
              load.config, stream::synthetic::trainedEstimator())),
          fleet_(load.clients, load.config.session.counterWidthBits,
                 load.baseClient),
          samplesOf_(static_cast<size_t>(load.clients), 0)
    {
        batch_.reserve(static_cast<size_t>(load.offersPerTick));
        std::filesystem::create_directories(
            std::filesystem::path(checkpoint_base).parent_path());
        checkpointer_ = std::make_unique<StreamCheckpointer>(
            *service_, checkpoint_base, load.checkpointEvery);
    }

    /**
     * Offer every client once (its baseline sample) and drain. Client c
     * first skips c % 12 samples, so clients drained together sit at
     * different points of the generator's sequence-dependent activity
     * pattern; in lockstep, every refit window would be collinear.
     */
    void
    baseline()
    {
        for (int c = 0; c < load_.clients; ++c)
            for (int skip = 0; skip < c % 12; ++skip)
                fleet_.next(c, 0.5);
        for (int base = 0; base < load_.clients;
             base += load_.offersPerTick)
            step();
        while (service_->stats().drained <
               service_->ingestStats().admitted)
            service_->tick(pool_);
    }

    /** CPU watts the fleet's physics are shifted by at @p tick. */
    double
    shiftAt(uint64_t tick) const
    {
        return tick % load_.driftPeriod >= load_.driftPeriod / 2
                   ? load_.driftWatts
                   : 0.0;
    }

    /**
     * One serving step; returns its wall time (s). The generated
     * offers are built first and excluded from the step.
     */
    double
    step()
    {
        const uint64_t tick = service_->now();
        const double shift = shiftAt(tick);
        batch_.clear();
        for (int i = 0; i < load_.offersPerTick; ++i) {
            const int c = static_cast<int>(cursor_++ % load_.clients);
            const uint64_t k = samplesOf_[static_cast<size_t>(c)]++;
            StreamSample sample =
                fleet_.next(c, loadOf(k, static_cast<uint64_t>(c)),
                            shift);
            // A rotating set of bad clients sends NaN counters.
            const uint64_t epoch = tick / 512;
            if (resilience::hashUnit(master_ ^ 0xbad0u, sample.client,
                                     epoch) < load_.poisonShare &&
                k > 0)
                sample.raw.counts[0] = std::nan("");
            batch_.push_back(sample);
        }

        const Clock::time_point start = Clock::now();
        {
            obs::TraceSpan span("stream", "StreamService::offer");
            span.arg("id", static_cast<double>(tick));
            for (const StreamSample &sample : batch_)
                service_->offer(sample);
        }
        {
            obs::TraceSpan span("stream", "StreamService::tick");
            span.arg("id", static_cast<double>(tick));
            service_->tick(pool_);
        }
        const uint64_t before =
            checkpointer_->written() + checkpointer_->failures();
        const Clock::time_point c0 = Clock::now();
        {
            obs::TraceSpan span("stream", "StreamCheckpointer::onTick");
            span.arg("id", static_cast<double>(tick));
            checkpointer_->onTick();
        }
        if (checkpointer_->written() + checkpointer_->failures() != before)
            checkpointMs_.push_back(secondsSince(c0) * 1e3);
        return secondsSince(start);
    }

    StreamService &service() { return *service_; }
    StreamCheckpointer &checkpointer() { return *checkpointer_; }
    const std::vector<double> &checkpointMs() const
    {
        return checkpointMs_;
    }
    double finalShift() const { return shiftAt(service_->now()); }

  private:
    StreamLoad load_;
    uint64_t master_;
    ExperimentPool pool_;
    std::unique_ptr<StreamService> service_;
    std::unique_ptr<StreamCheckpointer> checkpointer_;
    stream::synthetic::Fleet fleet_;
    std::vector<uint64_t> samplesOf_;
    std::vector<StreamSample> batch_;
    uint64_t cursor_ = 0;
    std::vector<double> checkpointMs_;
};

/**
 * Eq 6 mean error (%) of the service's current models on held-out
 * synthetic samples with the fleet's current physics.
 */
double
servedModelErrorPct(const StreamService &service, double cpu_shift)
{
    SampleTrace held_out;
    for (int i = 0; i < 256; ++i) {
        AlignedSample s = stream::synthetic::syntheticSample(
            (i + 0.5) / 256.0, 7919 + i);
        s.measuredWatts[static_cast<size_t>(Rail::Cpu)] += cpu_shift;
        held_out.add(std::move(s));
    }
    const Validator validator(service.estimator(), 0.0);
    const ValidationResult r = validator.validate("held-out", held_out);
    double sum = 0.0;
    for (const double e : r.averageError)
        sum += e;
    return 100.0 * sum / numRails;
}

/** Add the counters of @p c under @p prefix. */
void
reportCounts(const std::string &prefix, const StreamCounts &c,
             Report &report)
{
    report.count(prefix + "offered", c.offered);
    report.count(prefix + "shed", c.shed);
    report.count(prefix + "overflow", c.overflow);
    report.count(prefix + "refused", c.refused);
    report.count(prefix + "accepted", c.accepted);
    report.count(prefix + "invalid", c.invalid);
    report.count(prefix + "quarantines", c.quarantines);
    report.count(prefix + "evicted", c.evicted);
    report.count(prefix + "refits", c.refits);
    report.count(prefix + "full_qr_refits", c.fullQrRefits);
    report.count(prefix + "fallback_publishes", c.fallbackPublishes);
    report.count(prefix + "drift_engaged", c.driftEngaged);
    report.count(prefix + "checkpoints", c.checkpoints);
}

} // namespace

void
runStreamHostile(const Options &opt, Report &report)
{
    const uint64_t master = masterSeed(opt.seed);
    const StreamLoad load = hostileLoad(master);
    const std::string ckpt = opt.workdir + "/checkpoints/stream";

    // Set-up: train the synthetic estimator, build the service and
    // the fleet, and baseline every client's session.
    std::unique_ptr<StreamRun> run;
    report.series("setup_s", repeatSetup(
        [&] {
            run.reset();
            std::filesystem::remove_all(opt.workdir + "/checkpoints");
        },
        [&] {
            run = std::make_unique<StreamRun>(load, load.workers, master,
                                              ckpt);
            run->baseline();
        }));

    StreamService &service = run->service();
    const StreamCounts start = countsOf(service);
    std::vector<double> step_ms;
    std::vector<double> step_estimates;
    StreamCounts prefix;
    uint64_t timed_ticks = 0;
    const TimedSection timed = runTimedSection(
        opt, static_cast<int>(load.prefixTicks), 16, 256, [&] {
            const uint64_t before = service.stats().estimates;
            const double s = run->step();
            step_ms.push_back(s * 1e3);
            step_estimates.push_back(
                static_cast<double>(service.stats().estimates - before));
            if (++timed_ticks == load.prefixTicks)
                prefix = countsOf(service);
        });
    recordTimed(opt, timed, report);
    report.series("step_ms", step_ms);
    report.series("step_samples", step_estimates);
    report.series("checkpoint_ms", run->checkpointMs());

    const StreamCounts end = countsOf(service);
    report.setAttempted(end.offered - start.offered);
    report.count("workers", static_cast<uint64_t>(load.workers));
    report.count("prefix_ticks", load.prefixTicks);
    // One checkpoint period, the pass tick_p50_ms is taken over.
    report.count("steps_per_pass", load.checkpointEvery);
    report.text("prefix_digest", hex64(prefix.digest));
    reportCounts("prefix.stream.", prefix, report);
    // Whole measured section (for failed_share and the traced view).
    reportCounts("timed.stream.", end - start, report);
    report.count("offers_per_tick",
                 static_cast<uint64_t>(load.offersPerTick));
    report.count("core.estimates", prefix.estimates);
    report.count("stream.queue_ticks_p99", service.slo().p99Ticks);
    report.count("stream.session_bytes", service.sessionMemoryBytes());
    const size_t sessions = service.activeSessions();
    report.set("bytes_per_session",
               sessions ? static_cast<double>(service.sessionMemoryBytes()) /
                              static_cast<double>(sessions)
                        : 0.0);
    report.set("avg_model_error_pct",
               servedModelErrorPct(service, run->finalShift()));

    StreamCheckpointer &cp = run->checkpointer();
    report.count("stream.checkpoint_failures", cp.failures());
    // One last checkpoint, then restore it into a fresh service: the
    // restored digest and tick must equal the live ones.
    {
        obs::TraceSpan span("stream", "StreamCheckpointer::writeNow");
        cp.writeNow();
    }
    report.count("stream.checkpoint_bytes",
                 std::filesystem::file_size(cp.last().path));
    StreamService restored(load.config,
                           stream::synthetic::trainedEstimator());
    const Clock::time_point r0 = Clock::now();
    const stream::RestoreResult result =
        stream::restoreStreamCheckpoint(restored, ckpt);
    report.set("stream.restore_s", secondsSince(r0));
    report.check("stream.restore_digest",
                 result.ok && restored.digest() == service.digest() &&
                     restored.now() == service.now(),
                 result.ok ? "restored " + hex64(restored.digest()) +
                                 " vs live " + hex64(service.digest())
                           : result.error);

    report.check("stream.hostile_paths",
                 prefix.shed > 0 && prefix.overflow > 0 &&
                     prefix.quarantines > 0 && prefix.refits > 0 &&
                     prefix.driftEngaged > 0 &&
                     prefix.fallbackPublishes > 0 && prefix.checkpoints > 0,
                 "shed, overflow, quarantine, refit, drift, fallback "
                 "and checkpoint paths all ran");

    // 1 vs N workers: replay set-up and the prefix on the other count.
    run.reset();
    std::filesystem::remove_all(opt.workdir + "/checkpoints");
    const int other_jobs = StreamLoad::otherWorkers;
    StreamRun other(load, other_jobs, master, ckpt);
    other.baseline();
    for (uint64_t t = 0; t < load.prefixTicks; ++t)
        other.step();
    const StreamCounts replay = countsOf(other.service());
    report.check("stream.one_vs_n_workers", replay == prefix,
                 std::to_string(other_jobs) + "-worker prefix digest " +
                     hex64(replay.digest) + " vs " + hex64(prefix.digest));
}

} // namespace perfbench
