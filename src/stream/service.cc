/**
 * @file
 * Implementation of the streaming estimation service.
 */

#include "stream/service.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/hash.hh"
#include "common/logging.hh"

namespace tdp {
namespace stream {

namespace {

/** Digest markers separating event kinds in the FNV chain. @{ */
constexpr uint64_t markRefit = 0x5ef17000ull;
constexpr uint64_t markDriftEngaged = 0xd21f7000ull;
constexpr uint64_t markDriftRecovered = 0xd21f7100ull;
constexpr uint64_t markDriftRelapsed = 0xd21f7200ull;
/** @} */

/** Bitwise double equality (NaN-safe, distinguishes -0.0). */
bool
bitEqual(double a, double b)
{
    uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof ab);
    std::memcpy(&bb, &b, sizeof bb);
    return ab == bb;
}

} // namespace

size_t
StreamService::railInputs(Rail rail)
{
    switch (rail) {
      case Rail::Cpu:
        return 2; // percent active, uops per cycle (Equation 1)
      case Rail::Memory:
        return 2; // bus transactions and square (Equation 3)
      case Rail::Io:
        return 2; // device interrupts and square (Equation 5)
      case Rail::Disk:
        return 4; // disk interrupts, DMA, each with square (Eq. 4)
      case Rail::Chipset:
      default:
        return 0; // fitted constant
    }
}

const char *
StreamService::railSlug(Rail rail)
{
    switch (rail) {
      case Rail::Cpu:
        return "cpu";
      case Rail::Chipset:
        return "chipset";
      case Rail::Memory:
        return "memory";
      case Rail::Io:
        return "io";
      case Rail::Disk:
        return "disk";
      default:
        return "unknown";
    }
}

void
StreamService::railFeatures(Rail rail, const EventVector &events,
                            double *out)
{
    switch (rail) {
      case Rail::Cpu:
        out[0] = events.total(&CpuEventRates::percentActive);
        out[1] = events.total(&CpuEventRates::uopsPerCycle);
        break;
      case Rail::Memory:
        out[0] = events.total(&CpuEventRates::busTxPerMcycle);
        out[1] = events.totalSquared(&CpuEventRates::busTxPerMcycle);
        break;
      case Rail::Io:
        out[0] =
            events.total(&CpuEventRates::deviceInterruptsPerCycle);
        out[1] = events.totalSquared(
            &CpuEventRates::deviceInterruptsPerCycle);
        break;
      case Rail::Disk:
        out[0] = events.total(&CpuEventRates::diskInterruptsPerCycle);
        out[1] = events.totalSquared(
            &CpuEventRates::diskInterruptsPerCycle);
        out[2] = events.total(&CpuEventRates::dmaPerCycle);
        out[3] = events.totalSquared(&CpuEventRates::dmaPerCycle);
        break;
      case Rail::Chipset:
      default:
        break;
    }
}

StreamService::StreamService(const StreamConfig &config,
                             SystemPowerEstimator estimator)
    : cfg_(config), est_(std::move(estimator)), ingest_(config.ingest),
      digest_(fnv1aBasis),
      telemetry_(config.telemetry, config.ingest.shards)
{
    if (cfg_.refitBlockRows == 0)
        fatal("StreamService: refitBlockRows must be >= 1");
    if (cfg_.refitWindowBlocks == 0)
        fatal("StreamService: refitWindowBlocks must be >= 1");
    if (cfg_.drainBudget == 0)
        fatal("StreamService: drainBudget must be >= 1");
    if (!est_.ready())
        fatal("StreamService: estimator must be trained (ready())");
    fingerprint_ = computeCheckpointFingerprint();

    const size_t shards = static_cast<size_t>(cfg_.ingest.shards);
    sessions_.reserve(shards);
    for (size_t s = 0; s < shards; ++s)
        sessions_.emplace_back(cfg_.session);
    // Staging is sized by the drain budget once; tick() writes the
    // slots in place so the steady-state drain never allocates.
    staged_.resize(shards);
    for (std::vector<Staged> &staged : staged_)
        staged.resize(cfg_.drainBudget);
    stagedCount_.assign(shards, 0);
    alignedScratch_.resize(shards);

    for (int r = 0; r < numRails; ++r) {
        RlsConfig rls;
        rls.inputs = railInputs(static_cast<Rail>(r));
        rls.blockRows = cfg_.refitBlockRows;
        rls.windowBlocks = cfg_.refitWindowBlocks;
        rails_[r].rls.reset(new WindowedRls(rls));
        rails_[r].drift.reset(new DriftGuard(cfg_.drift));
    }

    auto &reg = obs::StatsRegistry::global();
    idOffered_ = reg.counter("stream.ingest.offered");
    idAdmitted_ = reg.counter("stream.ingest.admitted");
    idShed_ = reg.counter("stream.ingest.shed");
    idOverflow_ = reg.counter("stream.ingest.overflow");
    idAccepted_ = reg.counter("stream.session.accepted");
    idInvalid_ = reg.counter("stream.session.invalid");
    idQuarantines_ = reg.counter("stream.session.quarantines");
    idEvicted_ = reg.counter("stream.session.evicted");
    idLatency_ = reg.histogram("stream.latency.ticks");
    idRefits_ = reg.counter("stream.refit.count");
    idDriftEngaged_ = reg.counter("stream.drift.engaged");
    idDriftRecovered_ = reg.counter("stream.drift.recovered");
}

void
StreamService::foldDigest(uint64_t bits)
{
    digest_ = fnv1a64(&bits, sizeof bits, digest_);
}

void
StreamService::foldDigestDouble(double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    foldDigest(bits);
}

Admission
StreamService::offer(const StreamSample &sample)
{
    auto &reg = obs::StatsRegistry::global();
    reg.add(idOffered_);
    const int shard = ingest_.shardOf(sample.client);
    if (sessions_[static_cast<size_t>(shard)].isQuarantined(
            sample.client)) {
        ++stats_.quarantinedAtDoor;
        return Admission::Quarantined;
    }
    const Admission admission = ingest_.offer(now_, sample);
    switch (admission) {
      case Admission::Admitted:
        reg.add(idAdmitted_);
        break;
      case Admission::Shed:
        reg.add(idShed_);
        telemetry_.flight(static_cast<size_t>(shard), FlightKind::Shed,
                          now_, sample.client, sample.seq);
        break;
      case Admission::Overflow:
        reg.add(idOverflow_);
        telemetry_.flight(static_cast<size_t>(shard),
                          FlightKind::Overflow, now_, sample.client,
                          sample.seq);
        break;
      default:
        break;
    }
    return admission;
}

void
StreamService::tick(const ExperimentPool &pool)
{
    const size_t shards = sessions_.size();

    // Parallel phase: each worker owns one shard end to end (ring,
    // session table, staging buffer), so the staged content is a pure
    // function of the shard's queue - identical at any --jobs. The
    // drain pops and admits one sample at a time in ring order, and
    // every Staged slot is written in place: in steady state this
    // loop performs zero heap allocations.
    pool.forEach(shards, [&](size_t s) {
        std::vector<Staged> &staged = staged_[s];
        size_t count = 0;
        SampleRing &ring = ingest_.shard(static_cast<int>(s));
        AlignedSample &aligned = alignedScratch_[s];
        StreamSample sample;
        for (size_t budget = cfg_.drainBudget;
             budget > 0 && ring.pop(sample); --budget) {
            const SessionTable::Admit admit =
                sessions_[s].admit(now_, sample);
            Staged &entry = staged[count++];
            entry.client = sample.client;
            entry.seq = sample.seq;
            entry.enqueueTick = sample.enqueueTick;
            entry.verdict = admit.verdict;
            entry.newlyQuarantined = admit.newlyQuarantined;
            if (admit.verdict != Verdict::Accepted)
                continue;
            // Spread the summed deltas evenly over the client's CPUs -
            // the readCsv reconstruction semantics, exact for the
            // summed per-CPU model forms.
            aligned.time = sample.time;
            aligned.interval = sample.interval;
            const size_t n = static_cast<size_t>(sample.cpus);
            aligned.perCpu.resize(n);
            for (size_t c = 0; c < n; ++c) {
                for (int e = 0; e < numPerfEvents; ++e) {
                    aligned.perCpu[c].counts[static_cast<size_t>(e)] =
                        admit.deltas.counts[static_cast<size_t>(e)] /
                        static_cast<double>(n);
                }
            }
            aligned.osDiskInterrupts = sample.osDiskInterrupts;
            aligned.osDeviceInterrupts = sample.osDeviceInterrupts;
            EventVector::fromSampleInto(aligned, entry.events);
            entry.measured = sample.measuredWatts;
        }
        stagedCount_[s] = count;
    });

    // Serial fold: shard order, then ring order - the estimator's
    // health accounting and the digest chain are order-sensitive.
    for (size_t s = 0; s < shards; ++s) {
        for (size_t k = 0; k < stagedCount_[s]; ++k)
            foldStaged(static_cast<int>(s), staged_[s][k]);
    }

    for (int r = 0; r < numRails; ++r)
        maybeRefit(static_cast<Rail>(r));

    if (cfg_.evictEveryTicks > 0 &&
        (now_ + 1) % cfg_.evictEveryTicks == 0) {
        uint64_t evicted = 0;
        for (SessionTable &table : sessions_)
            evicted += table.evictIdle(now_);
        if (evicted > 0)
            obs::StatsRegistry::global().add(idEvicted_, evicted);
        ++stats_.evictionSweeps;
    }

    if (telemetry_.timelineEnabled() &&
        (now_ + 1) % telemetry_.windowTicks() == 0)
        sealTelemetryWindow();

    ++now_;
    ++stats_.ticks;
}

TimelineCounters
StreamService::cumulativeTimelineCounters() const
{
    TimelineCounters c;
    const ShardedIngest::Stats &ing = ingest_.stats();
    c.offered = ing.offered;
    c.admitted = ing.admitted;
    c.shed = ing.shed;
    c.overflow = ing.overflow;
    c.drained = stats_.drained;
    const SessionTable::Stats sess = sessionStats();
    c.accepted = sess.accepted;
    c.invalid = sess.nonFinite + sess.outOfRange + sess.duplicateSeq +
                sess.outOfOrderSeq + sess.staleTime + sess.zeroCycles;
    c.quarantines = sess.quarantines;
    c.evicted = sess.evicted;
    for (int r = 0; r < numRails; ++r) {
        const RailState &state = rails_[static_cast<size_t>(r)];
        c.refits += state.refits;
        c.fullQrRefits += state.fullQrRefits;
        c.degradedPublishes += state.degradedPublishes;
        c.unestimable += state.unestimable;
        const DriftStats drift = state.drift->stats();
        c.driftEngaged += drift.engaged;
        c.driftRecovered += drift.recovered;
        c.driftRelapses += drift.relapses;
    }
    // Attempts, not successes: a run with flaky checkpoint I/O must
    // seal the same timeline as a healthy one modulo this counter
    // alone, and attempts are deterministic where outcomes are not.
    // An attempt counts from the tick that encodes it, not from the
    // later tick that reaps its write.
    c.checkpoints = stats_.checkpoints + stats_.checkpointFailures +
                    checkpointsInFlight_;
    return c;
}

void
StreamService::sealTelemetryWindow()
{
    // Built entirely from counters the serial phases already
    // maintain, at a deterministic point in the tick - the sealed
    // window is byte-identical at any --jobs. No allocations: every
    // summed struct is a POD aggregate on the stack.
    const TimelineCounters c = cumulativeTimelineCounters();

    TimelineGauges g;
    g.shards = static_cast<uint32_t>(sessions_.size());
    for (size_t s = 0; s < sessions_.size(); ++s) {
        const uint64_t occupancy =
            ingest_.shard(static_cast<int>(s)).size();
        g.occupancyMax = std::max(g.occupancyMax, occupancy);
        g.occupancyTotal += occupancy;
    }
    for (int r = 0; r < numRails; ++r)
        g.railStates[static_cast<size_t>(r)] = static_cast<uint8_t>(
            rails_[static_cast<size_t>(r)].drift->state());

    telemetry_.sealWindow(now_, c, g);
}

void
StreamService::foldStaged(int shard, const Staged &staged)
{
    auto &reg = obs::StatsRegistry::global();
    ++stats_.drained;
    foldDigest(staged.client);
    foldDigest(staged.seq);
    foldDigest(static_cast<uint64_t>(staged.verdict));
    if (staged.newlyQuarantined) {
        reg.add(idQuarantines_);
        telemetry_.flight(static_cast<size_t>(shard),
                          FlightKind::Quarantine, now_, staged.client,
                          staged.seq,
                          static_cast<uint32_t>(staged.verdict));
    }
    if (verdictIsInvalid(staged.verdict)) {
        reg.add(idInvalid_);
        telemetry_.flight(static_cast<size_t>(shard),
                          FlightKind::Verdict, now_, staged.client,
                          staged.seq,
                          static_cast<uint32_t>(staged.verdict));
    }
    if (staged.verdict != Verdict::Accepted)
        return;
    reg.add(idAccepted_);

    const uint64_t delay = now_ - staged.enqueueTick;
    ++latency_[static_cast<size_t>(obs::histogramBucketOf(delay))];
    ++latencyCount_;
    latencyMax_ = std::max(latencyMax_, delay);
    reg.observe(idLatency_, delay);
    telemetry_.onLatency(delay);

    double total = 0.0;
    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        RailState &state = rails_[static_cast<size_t>(r)];

        // Always evaluate the primary: drift watches it even while a
        // fallback rung publishes, else recovery could never trigger.
        const SubsystemModel &primary = est_.model(rail);
        double primaryWatts = std::nan("");
        if (primary.trained())
            primaryWatts = primary.estimate(staged.events);

        double published = primaryWatts;
        bool fromFallback = false;
        if (state.drift->state() != DriftState::Healthy ||
            !std::isfinite(primaryWatts)) {
            for (const auto &rung : est_.fallbacks(rail)) {
                if (!rung->trained())
                    continue;
                const double watts = rung->estimate(staged.events);
                if (std::isfinite(watts)) {
                    published = watts;
                    fromFallback = true;
                    break;
                }
            }
        }
        if (fromFallback != state.publishingFallback) {
            telemetry_.flight(telemetry_.serviceRing(),
                              fromFallback
                                  ? FlightKind::FallbackEngaged
                                  : FlightKind::FallbackCleared,
                              now_, staged.client, staged.seq,
                              static_cast<uint32_t>(r), published);
            state.publishingFallback = fromFallback;
        }
        if (fromFallback)
            ++state.degradedPublishes;
        if (!std::isfinite(published)) {
            published = 0.0;
            ++state.unestimable;
        }
        total += published;
        foldDigestDouble(published);

        const double measured =
            staged.measured[static_cast<size_t>(r)];
        if (std::isfinite(measured)) {
            if (std::isfinite(primaryWatts)) {
                const DriftGuard::Event event =
                    state.drift->observe(primaryWatts - measured);
                if (event.engaged) {
                    foldDigest(markDriftEngaged +
                               static_cast<uint64_t>(r));
                    reg.add(idDriftEngaged_);
                    telemetry_.flight(telemetry_.serviceRing(),
                                      FlightKind::DriftEngaged, now_,
                                      staged.client, staged.seq,
                                      static_cast<uint32_t>(r),
                                      event.windowRmse);
                }
                if (event.recovered) {
                    foldDigest(markDriftRecovered +
                               static_cast<uint64_t>(r));
                    reg.add(idDriftRecovered_);
                    telemetry_.flight(telemetry_.serviceRing(),
                                      FlightKind::DriftRecovered, now_,
                                      staged.client, staged.seq,
                                      static_cast<uint32_t>(r),
                                      event.windowRmse);
                }
                if (event.relapsed) {
                    foldDigest(markDriftRelapsed +
                               static_cast<uint64_t>(r));
                    telemetry_.flight(telemetry_.serviceRing(),
                                      FlightKind::DriftRelapsed, now_,
                                      staged.client, staged.seq,
                                      static_cast<uint32_t>(r),
                                      event.windowRmse);
                }
            }
            double features[4] = {0.0, 0.0, 0.0, 0.0};
            railFeatures(rail, staged.events, features);
            state.rls->add(features, measured);
        }
    }
    foldDigestDouble(total);
    sessions_[static_cast<size_t>(shard)].recordWatts(staged.client,
                                                      total);
    ++stats_.estimates;
}

void
StreamService::maybeRefit(Rail rail)
{
    RailState &state = rails_[static_cast<size_t>(rail)];
    const uint64_t sealed = state.rls->stats().blocksSealed;
    if (sealed == state.blocksAtLastRefit)
        return;
    state.blocksAtLastRefit = sealed;
    if (!state.rls->canFit())
        return;
    // Partial windows are too easy to overfit: a window holding too
    // few distinct operating points can pass the rank check on
    // numerical noise and publish wildly extrapolating coefficients.
    // Wait for a full window before touching the trained model.
    if (!state.rls->windowFull())
        return;

    const WindowedRls::Refit refit = state.rls->refit();
    if (!refit.ok) {
        telemetry_.flight(telemetry_.serviceRing(),
                          FlightKind::RefitRejected, now_, 0, sealed,
                          static_cast<uint32_t>(rail));
        return; // keep the previous model: degrade, never collapse
    }

    if (cfg_.verifyRefits && !refit.usedFullQr) {
        const FitResult scratch = state.rls->refitFromScratch();
        bool same =
            bitEqual(refit.fit.intercept, scratch.intercept) &&
            bitEqual(refit.fit.rmse, scratch.rmse) &&
            bitEqual(refit.fit.r2, scratch.r2) &&
            refit.fit.sampleCount == scratch.sampleCount &&
            refit.fit.coefficients.size() ==
                scratch.coefficients.size();
        for (size_t c = 0; same && c < refit.fit.coefficients.size();
             ++c) {
            same = bitEqual(refit.fit.coefficients[c],
                            scratch.coefficients[c]);
        }
        if (!same) {
            fatal("stream: incremental refit of rail %s diverged "
                  "bitwise from the from-scratch reference",
                  railSlug(rail));
        }
        ++state.verifiedRefits;
    }

    applyCoefficients(rail, refit.fit);
    state.drift->onRefit(refit.fit.rmse);
    ++state.refits;
    if (refit.usedFullQr)
        ++state.fullQrRefits;
    state.lastRefitRmse = refit.fit.rmse;
    obs::StatsRegistry::global().add(idRefits_);
    telemetry_.flight(telemetry_.serviceRing(), FlightKind::Refit, now_,
                      0, sealed, static_cast<uint32_t>(rail),
                      refit.fit.rmse);

    foldDigest(markRefit + static_cast<uint64_t>(rail));
    foldDigestDouble(refit.fit.intercept);
    for (const double coef : refit.fit.coefficients)
        foldDigestDouble(coef);
    foldDigestDouble(refit.fit.rmse);
}

void
StreamService::applyCoefficients(Rail rail, const FitResult &fit)
{
    // Member scratch: refits happen per sealed block per rail, and
    // the serial fold must not churn the allocator for a vector whose
    // size is known and tiny.
    coefScratch_.clear();
    coefScratch_.reserve(1 + fit.coefficients.size());
    coefScratch_.push_back(fit.intercept);
    coefScratch_.insert(coefScratch_.end(), fit.coefficients.begin(),
                        fit.coefficients.end());
    est_.model(rail).setCoefficients(coefScratch_);
}

SessionTable::Stats
StreamService::sessionStats() const
{
    SessionTable::Stats sum;
    for (const SessionTable &table : sessions_) {
        const SessionTable::Stats &s = table.stats();
        sum.created += s.created;
        sum.accepted += s.accepted;
        sum.baselines += s.baselines;
        sum.wraps += s.wraps;
        sum.nonFinite += s.nonFinite;
        sum.outOfRange += s.outOfRange;
        sum.duplicateSeq += s.duplicateSeq;
        sum.outOfOrderSeq += s.outOfOrderSeq;
        sum.staleTime += s.staleTime;
        sum.zeroCycles += s.zeroCycles;
        sum.rejectedQuarantined += s.rejectedQuarantined;
        sum.quarantines += s.quarantines;
        sum.evicted += s.evicted;
    }
    return sum;
}

size_t
StreamService::activeSessions() const
{
    size_t active = 0;
    for (const SessionTable &table : sessions_)
        active += table.active();
    return active;
}

size_t
StreamService::quarantinedSessions() const
{
    size_t quarantined = 0;
    for (const SessionTable &table : sessions_)
        quarantined += table.quarantinedCount();
    return quarantined;
}

size_t
StreamService::sessionMemoryBytes() const
{
    size_t bytes = 0;
    for (const SessionTable &table : sessions_)
        bytes += table.memoryBytes();
    return bytes;
}

RailStatus
StreamService::railStatus(Rail rail) const
{
    const RailState &state = rails_[static_cast<size_t>(rail)];
    RailStatus status;
    status.state = state.drift->state();
    status.baselineRmse = state.drift->baselineRmse();
    status.lastRefitRmse = state.lastRefitRmse;
    status.refits = state.refits;
    status.fullQrRefits = state.fullQrRefits;
    status.verifiedRefits = state.verifiedRefits;
    status.degradedPublishes = state.degradedPublishes;
    status.unestimable = state.unestimable;
    status.drift = state.drift->stats();
    status.rls = state.rls->stats();
    return status;
}

SloSummary
StreamService::slo() const
{
    SloSummary out;
    out.samples = latencyCount_;
    out.maxTicks = latencyMax_;
    if (latencyCount_ == 0)
        return out;
    const uint64_t target50 = (latencyCount_ + 1) / 2;
    const uint64_t target99 = (latencyCount_ * 99 + 99) / 100;
    uint64_t cumulative = 0;
    bool have50 = false, have99 = false;
    for (int b = 0; b < obs::histogramBuckets; ++b) {
        cumulative += latency_[static_cast<size_t>(b)];
        if (!have50 && cumulative >= target50) {
            out.p50Ticks = obs::histogramBucketLow(b);
            have50 = true;
        }
        if (!have99 && cumulative >= target99) {
            out.p99Ticks = obs::histogramBucketLow(b);
            have99 = true;
            break;
        }
    }
    return out;
}

void
StreamService::addManifestSections(obs::RunManifest &manifest) const
{
    const ShardedIngest::Stats &ing = ingest_.stats();
    manifest.addSectionEntry("stream.ingest", "offered", ing.offered);
    manifest.addSectionEntry("stream.ingest", "admitted",
                             ing.admitted);
    manifest.addSectionEntry("stream.ingest", "shed", ing.shed);
    manifest.addSectionEntry("stream.ingest", "overflow",
                             ing.overflow);
    manifest.addSectionEntry("stream.ingest", "high_water",
                             ing.highWater);
    manifest.addSectionEntry("stream.ingest", "quarantined_at_door",
                             stats_.quarantinedAtDoor);
    manifest.addSectionEntry("stream.ingest", "ticks", stats_.ticks);
    manifest.addSectionEntry("stream.ingest", "drained",
                             stats_.drained);

    const SessionTable::Stats sess = sessionStats();
    manifest.addSectionEntry("stream.session", "created",
                             sess.created);
    manifest.addSectionEntry("stream.session", "accepted",
                             sess.accepted);
    manifest.addSectionEntry("stream.session", "baselines",
                             sess.baselines);
    manifest.addSectionEntry("stream.session", "wraps", sess.wraps);
    manifest.addSectionEntry("stream.session", "non_finite",
                             sess.nonFinite);
    manifest.addSectionEntry("stream.session", "out_of_range",
                             sess.outOfRange);
    manifest.addSectionEntry("stream.session", "duplicate_seq",
                             sess.duplicateSeq);
    manifest.addSectionEntry("stream.session", "out_of_order_seq",
                             sess.outOfOrderSeq);
    manifest.addSectionEntry("stream.session", "stale_time",
                             sess.staleTime);
    manifest.addSectionEntry("stream.session", "zero_cycles",
                             sess.zeroCycles);
    manifest.addSectionEntry("stream.session", "rejected_quarantined",
                             sess.rejectedQuarantined);
    manifest.addSectionEntry("stream.session", "quarantines",
                             sess.quarantines);
    manifest.addSectionEntry("stream.session", "evicted",
                             sess.evicted);
    manifest.addSectionEntry("stream.session", "active",
                             static_cast<uint64_t>(activeSessions()));
    manifest.addSectionEntry(
        "stream.session", "quarantined_now",
        static_cast<uint64_t>(quarantinedSessions()));

    const SloSummary s = slo();
    manifest.addSectionEntry("stream.slo", "samples", s.samples);
    manifest.addSectionEntry("stream.slo", "p50_ticks", s.p50Ticks);
    manifest.addSectionEntry("stream.slo", "p99_ticks", s.p99Ticks);
    manifest.addSectionEntry("stream.slo", "max_ticks", s.maxTicks);

    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        const RailStatus status = railStatus(rail);
        const std::string prefix = railSlug(rail);
        manifest.addSectionEntry(
            "stream.rails", prefix + ".state",
            std::string(driftStateName(status.state)));
        manifest.addSectionEntry("stream.rails", prefix + ".refits",
                                 status.refits);
        manifest.addSectionEntry("stream.rails",
                                 prefix + ".full_qr_refits",
                                 status.fullQrRefits);
        manifest.addSectionEntry("stream.rails",
                                 prefix + ".verified_refits",
                                 status.verifiedRefits);
        manifest.addSectionEntry("stream.rails",
                                 prefix + ".degraded_publishes",
                                 status.degradedPublishes);
        manifest.addSectionEntry("stream.rails",
                                 prefix + ".unestimable",
                                 status.unestimable);
        manifest.addSectionEntry("stream.rails",
                                 prefix + ".drift_engaged",
                                 status.drift.engaged);
        manifest.addSectionEntry("stream.rails",
                                 prefix + ".drift_recovered",
                                 status.drift.recovered);
        manifest.addSectionEntry("stream.rails",
                                 prefix + ".drift_relapses",
                                 status.drift.relapses);
        manifest.addSectionEntry("stream.rails",
                                 prefix + ".baseline_rmse",
                                 status.baselineRmse);
        manifest.addSectionEntry("stream.rails",
                                 prefix + ".last_refit_rmse",
                                 status.lastRefitRmse);
        manifest.addSectionEntry("stream.rails",
                                 prefix + ".rls_rows",
                                 status.rls.rowsAdded);
    }

    if (telemetry_.timelineEnabled())
        telemetry_.addManifestSections(manifest);
}

} // namespace stream
} // namespace tdp
