/**
 * @file
 * Implementation of the per-client session table.
 */

#include "stream/session.hh"

#include <cmath>

#include "common/logging.hh"
#include "stream/checkpoint.hh"

namespace tdp {
namespace stream {

const char *
verdictName(Verdict verdict)
{
    switch (verdict) {
      case Verdict::Accepted:
        return "accepted";
      case Verdict::Baseline:
        return "baseline";
      case Verdict::NonFinite:
        return "non-finite";
      case Verdict::OutOfRange:
        return "out-of-range";
      case Verdict::DuplicateSeq:
        return "duplicate-seq";
      case Verdict::OutOfOrderSeq:
        return "out-of-order-seq";
      case Verdict::StaleTime:
        return "stale-time";
      case Verdict::ZeroCycles:
        return "zero-cycles";
      case Verdict::Quarantined:
        return "quarantined";
      default:
        return "unknown";
    }
}

bool
verdictIsInvalid(Verdict verdict)
{
    switch (verdict) {
      case Verdict::NonFinite:
      case Verdict::OutOfRange:
      case Verdict::DuplicateSeq:
      case Verdict::OutOfOrderSeq:
      case Verdict::StaleTime:
      case Verdict::ZeroCycles:
        return true;
      default:
        return false;
    }
}

SessionTable::SessionTable(const SessionConfig &config)
    : config_(config)
{
    if (config_.counterWidthBits < 1 || config_.counterWidthBits > 52)
        fatal("SessionTable: counterWidthBits must be in [1, 52], "
              "got %d",
              config_.counterWidthBits);
    if (config_.idleTimeoutTicks == 0)
        fatal("SessionTable: idleTimeoutTicks must be >= 1");
    if (config_.quarantineThreshold == 0)
        fatal("SessionTable: quarantineThreshold must be >= 1");
    if (config_.wattsWindow == 0)
        fatal("SessionTable: wattsWindow must be >= 1");
}

uint32_t
SessionTable::rowOf(uint64_t client, uint64_t tick)
{
    const uint32_t existing = index_.find(client);
    if (existing != FlatClientIndex::kNoRow)
        return existing;
    const uint32_t row = static_cast<uint32_t>(clients_.size());
    clients_.push_back(client);
    lastSeq_.push_back(0);
    lastTime_.push_back(0.0);
    lastSeen_.push_back(tick);
    quarantined_.push_back(0);
    hasBaseline_.push_back(0);
    invalidCount_.push_back(0);
    lastRaw_.resize(lastRaw_.size() + numPerfEvents, 0.0);
    watts_.resize(watts_.size() + config_.wattsWindow, 0.0);
    wattsCount_.push_back(0);
    index_.insert(client, row);
    ++stats_.created;
    return row;
}

void
SessionTable::recordInvalid(uint32_t row, Admit &admit)
{
    ++invalidCount_[row];
    if (!quarantined_[row] &&
        invalidCount_[row] >= config_.quarantineThreshold) {
        quarantined_[row] = 1;
        ++quarantinedNow_;
        ++stats_.quarantines;
        admit.newlyQuarantined = true;
    }
}

SessionTable::PayloadClass
SessionTable::classify(const StreamSample &sample) const
{
    // Payload validation. Raw counters must be finite and inside
    // [0, 2^width) *before* the wrap recovery sees them - a remote
    // client must never be able to crash the service. admit() checks
    // finite before in-range, so an Inf (which also fails the range
    // compare) reads NonFinite; a NaN fails only the finite test
    // because the range compares are ordered.
    PayloadClass cls;
    if (!std::isfinite(sample.time) || !std::isfinite(sample.interval) ||
        !std::isfinite(sample.osDiskInterrupts) ||
        !std::isfinite(sample.osDeviceInterrupts))
        cls.finite = false;
    if (!(sample.interval > 0.0) || sample.cpus < 1 ||
        !(sample.osDiskInterrupts >= 0.0) ||
        !(sample.osDeviceInterrupts >= 0.0))
        cls.inRange = false;
    const double span = counterSpan(config_.counterWidthBits);
    for (double raw : sample.raw.counts) {
        if (!std::isfinite(raw))
            cls.finite = false;
        if (raw < 0.0 || raw >= span)
            cls.inRange = false;
    }
    return cls;
}

SessionTable::Admit
SessionTable::admit(uint64_t tick, const StreamSample &sample)
{
    const PayloadClass cls = classify(sample);
    Admit admit;
    const uint32_t row = rowOf(sample.client, tick);

    // Any contact (even a reject) proves the client alive: eviction
    // is about silence, not behaviour.
    lastSeen_[row] = tick;

    if (quarantined_[row]) {
        ++stats_.rejectedQuarantined;
        admit.verdict = Verdict::Quarantined;
        return admit;
    }

    // Sequence discipline first: replays and reordering are protocol
    // violations regardless of payload quality.
    if (hasBaseline_[row]) {
        if (sample.seq == lastSeq_[row]) {
            ++stats_.duplicateSeq;
            admit.verdict = Verdict::DuplicateSeq;
            recordInvalid(row, admit);
            return admit;
        }
        if (sample.seq < lastSeq_[row]) {
            ++stats_.outOfOrderSeq;
            admit.verdict = Verdict::OutOfOrderSeq;
            recordInvalid(row, admit);
            return admit;
        }
    }

    if (!cls.finite) {
        ++stats_.nonFinite;
        admit.verdict = Verdict::NonFinite;
        recordInvalid(row, admit);
        return admit;
    }
    if (!cls.inRange) {
        ++stats_.outOfRange;
        admit.verdict = Verdict::OutOfRange;
        recordInvalid(row, admit);
        return admit;
    }

    if (hasBaseline_[row] && sample.time <= lastTime_[row]) {
        ++stats_.staleTime;
        admit.verdict = Verdict::StaleTime;
        recordInvalid(row, admit);
        return admit;
    }

    double *raw_column =
        &lastRaw_[static_cast<size_t>(row) * numPerfEvents];

    if (!hasBaseline_[row]) {
        // First valid contact primes the wrap recovery; nothing to
        // estimate yet.
        for (int e = 0; e < numPerfEvents; ++e)
            raw_column[e] = sample.raw.counts[static_cast<size_t>(e)];
        hasBaseline_[row] = 1;
        lastSeq_[row] = sample.seq;
        lastTime_[row] = sample.time;
        ++stats_.baselines;
        admit.verdict = Verdict::Baseline;
        return admit;
    }

    // Recover deltas, counting wraps. A wrapped read is *valid* - it
    // is what real width-limited PMU counters do.
    uint32_t wraps = 0;
    CounterSnapshot deltas;
    for (int e = 0; e < numPerfEvents; ++e) {
        const double cur = sample.raw.counts[static_cast<size_t>(e)];
        if (cur < raw_column[e])
            ++wraps;
        deltas.counts[static_cast<size_t>(e)] = wrappedCounterDelta(
            raw_column[e], cur, config_.counterWidthBits);
    }
    if (deltas[PerfEvent::Cycles] <= 0.0) {
        // No cycle progress: the rate derivation would divide by
        // zero. Advance the session (the raw read itself is sound) but
        // refuse the sample.
        for (int e = 0; e < numPerfEvents; ++e)
            raw_column[e] = sample.raw.counts[static_cast<size_t>(e)];
        lastSeq_[row] = sample.seq;
        lastTime_[row] = sample.time;
        ++stats_.zeroCycles;
        admit.verdict = Verdict::ZeroCycles;
        recordInvalid(row, admit);
        return admit;
    }

    for (int e = 0; e < numPerfEvents; ++e)
        raw_column[e] = sample.raw.counts[static_cast<size_t>(e)];
    lastSeq_[row] = sample.seq;
    lastTime_[row] = sample.time;
    ++stats_.accepted;
    stats_.wraps += wraps;
    admit.verdict = Verdict::Accepted;
    admit.deltas = deltas;
    admit.wraps = wraps;
    return admit;
}

bool
SessionTable::isQuarantined(uint64_t client) const
{
    const uint32_t row = index_.find(client);
    return row != FlatClientIndex::kNoRow && quarantined_[row] != 0;
}

void
SessionTable::recordWatts(uint64_t client, double watts)
{
    const uint32_t row = index_.find(client);
    if (row == FlatClientIndex::kNoRow)
        return;
    const size_t base = static_cast<size_t>(row) * config_.wattsWindow;
    watts_[base + wattsCount_[row] % config_.wattsWindow] = watts;
    ++wattsCount_[row];
}

double
SessionTable::windowMeanWatts(uint64_t client) const
{
    const uint32_t row = index_.find(client);
    if (row == FlatClientIndex::kNoRow)
        return std::nan("");
    const size_t filled = std::min<size_t>(
        wattsCount_[row], config_.wattsWindow);
    if (filled == 0)
        return std::nan("");
    const size_t base = static_cast<size_t>(row) * config_.wattsWindow;
    double sum = 0.0;
    for (size_t i = 0; i < filled; ++i)
        sum += watts_[base + i];
    return sum / static_cast<double>(filled);
}

void
SessionTable::removeRow(uint32_t row)
{
    const uint32_t last = static_cast<uint32_t>(clients_.size() - 1);
    if (quarantined_[row])
        --quarantinedNow_;
    index_.erase(clients_[row]);
    if (row != last) {
        clients_[row] = clients_[last];
        lastSeq_[row] = lastSeq_[last];
        lastTime_[row] = lastTime_[last];
        lastSeen_[row] = lastSeen_[last];
        quarantined_[row] = quarantined_[last];
        hasBaseline_[row] = hasBaseline_[last];
        invalidCount_[row] = invalidCount_[last];
        for (int e = 0; e < numPerfEvents; ++e) {
            lastRaw_[static_cast<size_t>(row) * numPerfEvents + e] =
                lastRaw_[static_cast<size_t>(last) * numPerfEvents + e];
        }
        for (size_t i = 0; i < config_.wattsWindow; ++i) {
            watts_[static_cast<size_t>(row) * config_.wattsWindow + i] =
                watts_[static_cast<size_t>(last) * config_.wattsWindow +
                       i];
        }
        wattsCount_[row] = wattsCount_[last];
        index_.set(clients_[row], row);
    }
    clients_.pop_back();
    lastSeq_.pop_back();
    lastTime_.pop_back();
    lastSeen_.pop_back();
    quarantined_.pop_back();
    hasBaseline_.pop_back();
    invalidCount_.pop_back();
    lastRaw_.resize(lastRaw_.size() - numPerfEvents);
    watts_.resize(watts_.size() - config_.wattsWindow);
    wattsCount_.pop_back();
}

size_t
SessionTable::evictIdle(uint64_t now)
{
    size_t evicted = 0;
    uint32_t row = 0;
    while (row < clients_.size()) {
        const uint64_t idle = now - lastSeen_[row];
        if (idle >= config_.idleTimeoutTicks) {
            removeRow(row);
            ++evicted;
            // The swapped-in row is re-examined at the same index.
        } else {
            ++row;
        }
    }
    stats_.evicted += evicted;
    return evicted;
}

size_t
SessionTable::memoryBytes() const
{
    return clients_.capacity() * sizeof(uint64_t) +
           lastSeq_.capacity() * sizeof(uint64_t) +
           lastTime_.capacity() * sizeof(double) +
           lastSeen_.capacity() * sizeof(uint64_t) +
           quarantined_.capacity() * sizeof(uint8_t) +
           hasBaseline_.capacity() * sizeof(uint8_t) +
           invalidCount_.capacity() * sizeof(uint32_t) +
           lastRaw_.capacity() * sizeof(double) +
           watts_.capacity() * sizeof(double) +
           wattsCount_.capacity() * sizeof(uint32_t) +
           index_.memoryBytes();
}

void
SessionTable::checkpointSave(CheckpointWriter &w) const
{
    // Column by column, each in one bytes() call.
    w.u64(clients_.size());
    w.column(clients_);
    w.column(lastSeq_);
    w.column(lastTime_);
    w.column(lastSeen_);
    w.column(quarantined_);
    w.column(hasBaseline_);
    w.column(invalidCount_);
    w.column(lastRaw_);
    w.column(watts_);
    w.column(wattsCount_);
    w.u64(stats_.created);
    w.u64(stats_.accepted);
    w.u64(stats_.baselines);
    w.u64(stats_.wraps);
    w.u64(stats_.nonFinite);
    w.u64(stats_.outOfRange);
    w.u64(stats_.duplicateSeq);
    w.u64(stats_.outOfOrderSeq);
    w.u64(stats_.staleTime);
    w.u64(stats_.zeroCycles);
    w.u64(stats_.rejectedQuarantined);
    w.u64(stats_.quarantines);
    w.u64(stats_.evicted);
    w.u64(quarantinedNow_);
}

bool
SessionTable::checkpointRestore(CheckpointReader &r)
{
    if (!clients_.empty()) {
        r.fail("session restore into a non-empty table");
        return false;
    }
    // Every column is bounded by the row count, and the row count by
    // the section bytes that remain, before anything is allocated.
    const size_t rowBytes =
        3 * sizeof(uint64_t) + sizeof(double) + 2 * sizeof(uint8_t) +
        2 * sizeof(uint32_t) +
        (numPerfEvents + config_.wattsWindow) * sizeof(double);
    const uint64_t rows = r.u64();
    if (!r.ok())
        return false;
    if (rows > r.remaining() / rowBytes ||
        rows >= FlatClientIndex::kNoRow) {
        r.fail("session row count exceeds the section");
        return false;
    }
    const size_t n = static_cast<size_t>(rows);
    r.column(clients_, n);
    r.column(lastSeq_, n);
    r.column(lastTime_, n);
    r.column(lastSeen_, n);
    r.column(quarantined_, n);
    r.column(hasBaseline_, n);
    r.column(invalidCount_, n);
    r.column(lastRaw_, n * numPerfEvents);
    r.column(watts_, n * config_.wattsWindow);
    r.column(wattsCount_, n);
    if (!r.ok())
        return false;
    size_t quarantinedSeen = 0;
    for (size_t row = 0; row < n; ++row) {
        if (quarantined_[row] != 0)
            ++quarantinedSeen;
        if (index_.find(clients_[row]) != FlatClientIndex::kNoRow) {
            r.fail("duplicate client in session checkpoint");
            return false;
        }
        index_.insert(clients_[row], static_cast<uint32_t>(row));
    }
    stats_.created = r.u64();
    stats_.accepted = r.u64();
    stats_.baselines = r.u64();
    stats_.wraps = r.u64();
    stats_.nonFinite = r.u64();
    stats_.outOfRange = r.u64();
    stats_.duplicateSeq = r.u64();
    stats_.outOfOrderSeq = r.u64();
    stats_.staleTime = r.u64();
    stats_.zeroCycles = r.u64();
    stats_.rejectedQuarantined = r.u64();
    stats_.quarantines = r.u64();
    stats_.evicted = r.u64();
    quarantinedNow_ = r.u64();
    if (!r.ok())
        return false;
    if (quarantinedNow_ != quarantinedSeen) {
        r.fail("quarantine count disagrees with quarantine flags");
        return false;
    }
    index_.verifyInvariants();
    return true;
}

} // namespace stream
} // namespace tdp
