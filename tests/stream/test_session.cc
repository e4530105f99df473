/**
 * @file
 * Tests for per-client session hygiene: validation verdicts, wrap
 * recovery, quarantine and idle eviction.
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "stream/session.hh"

namespace tdp {
namespace stream {
namespace {

constexpr int widthBits = 40;

/** A valid sample with all raw counters at @p base + seq offsets. */
StreamSample
validSample(uint64_t client, uint64_t seq, double base = 1e6)
{
    StreamSample s;
    s.client = client;
    s.seq = seq;
    s.time = static_cast<double>(seq);
    s.interval = 1.0;
    s.cpus = 2;
    for (int e = 0; e < numPerfEvents; ++e) {
        s.raw.counts[static_cast<size_t>(e)] =
            base + static_cast<double>(seq) * 1000.0 + e;
    }
    return s;
}

SessionConfig
config()
{
    SessionConfig cfg;
    cfg.counterWidthBits = widthBits;
    cfg.idleTimeoutTicks = 8;
    cfg.quarantineThreshold = 3;
    cfg.wattsWindow = 4;
    return cfg;
}

TEST(SessionTable, FirstContactPrimesBaseline)
{
    SessionTable table(config());
    const auto admit = table.admit(0, validSample(1, 1));
    EXPECT_EQ(admit.verdict, Verdict::Baseline);
    EXPECT_EQ(table.stats().baselines, 1u);
    EXPECT_EQ(table.stats().created, 1u);
    EXPECT_EQ(table.active(), 1u);
}

TEST(SessionTable, RecoversDeltasAfterBaseline)
{
    SessionTable table(config());
    table.admit(0, validSample(1, 1));
    const auto admit = table.admit(1, validSample(1, 2));
    ASSERT_EQ(admit.verdict, Verdict::Accepted);
    // Raw counters advance by exactly 1000 per seq step.
    for (int e = 0; e < numPerfEvents; ++e) {
        EXPECT_DOUBLE_EQ(
            admit.deltas.counts[static_cast<size_t>(e)], 1000.0);
    }
    EXPECT_EQ(admit.wraps, 0u);
}

TEST(SessionTable, RecoversWrappedCounters)
{
    SessionTable table(config());
    const double span = counterSpan(widthBits);

    StreamSample first = validSample(1, 1);
    first.raw.counts[static_cast<size_t>(PerfEvent::Cycles)] =
        span - 500.0;
    table.admit(0, first);

    // The cycles counter wrapped: raw dropped below the baseline.
    StreamSample second = validSample(1, 2);
    second.raw.counts[static_cast<size_t>(PerfEvent::Cycles)] = 500.0;
    const auto admit = table.admit(1, second);
    ASSERT_EQ(admit.verdict, Verdict::Accepted);
    EXPECT_DOUBLE_EQ(admit.deltas[PerfEvent::Cycles], 1000.0);
    EXPECT_EQ(admit.wraps, 1u);
    EXPECT_EQ(table.stats().wraps, 1u);
}

TEST(SessionTable, RefusesNonFiniteAndOutOfRangePayloads)
{
    // Threshold high enough that eight refusals don't quarantine.
    SessionConfig cfg = config();
    cfg.quarantineThreshold = 10;
    SessionTable table(cfg);
    table.admit(0, validSample(1, 1));

    StreamSample nan_sample = validSample(1, 2);
    nan_sample.raw.counts[0] = std::nan("");
    EXPECT_EQ(table.admit(1, nan_sample).verdict, Verdict::NonFinite);

    StreamSample inf_time = validSample(1, 3);
    inf_time.time = std::numeric_limits<double>::infinity();
    EXPECT_EQ(table.admit(2, inf_time).verdict, Verdict::NonFinite);

    // A raw counter at/beyond the wrap span would make the wrap
    // recovery fatal; the session must refuse it instead of crashing.
    StreamSample beyond = validSample(1, 4);
    beyond.raw.counts[1] = counterSpan(widthBits);
    EXPECT_EQ(table.admit(3, beyond).verdict, Verdict::OutOfRange);

    StreamSample negative = validSample(1, 5);
    negative.raw.counts[2] = -1.0;
    EXPECT_EQ(table.admit(4, negative).verdict, Verdict::OutOfRange);

    StreamSample bad_cpus = validSample(1, 6);
    bad_cpus.cpus = 0;
    EXPECT_EQ(table.admit(5, bad_cpus).verdict, Verdict::OutOfRange);

    // Infinities also fail the range compare; non-finite is checked
    // first, so they still read NonFinite.
    StreamSample pos_inf = validSample(1, 7);
    pos_inf.raw.counts[3] = std::numeric_limits<double>::infinity();
    EXPECT_EQ(table.admit(6, pos_inf).verdict, Verdict::NonFinite);

    StreamSample neg_inf = validSample(1, 8);
    neg_inf.raw.counts[4] = -std::numeric_limits<double>::infinity();
    EXPECT_EQ(table.admit(7, neg_inf).verdict, Verdict::NonFinite);

    StreamSample nan_irq = validSample(1, 9);
    nan_irq.osDiskInterrupts = std::nan("");
    EXPECT_EQ(table.admit(8, nan_irq).verdict, Verdict::NonFinite);

    EXPECT_EQ(table.stats().nonFinite, 5u);
    EXPECT_EQ(table.stats().outOfRange, 3u);
    EXPECT_FALSE(table.isQuarantined(1));
}

TEST(SessionTable, EnforcesSequenceDiscipline)
{
    SessionTable table(config());
    table.admit(0, validSample(1, 5));
    table.admit(1, validSample(1, 6));

    EXPECT_EQ(table.admit(2, validSample(1, 6)).verdict,
              Verdict::DuplicateSeq);
    EXPECT_EQ(table.admit(3, validSample(1, 4)).verdict,
              Verdict::OutOfOrderSeq);
    EXPECT_EQ(table.stats().duplicateSeq, 1u);
    EXPECT_EQ(table.stats().outOfOrderSeq, 1u);
}

TEST(SessionTable, RefusesStaleTime)
{
    SessionTable table(config());
    table.admit(0, validSample(1, 1));
    StreamSample stale = validSample(1, 2);
    stale.time = 0.5; // behind the baseline's time of 1.0
    EXPECT_EQ(table.admit(1, stale).verdict, Verdict::StaleTime);
}

TEST(SessionTable, RefusesZeroCycleWindowsButAdvances)
{
    SessionTable table(config());
    table.admit(0, validSample(1, 1));

    // Same cycles raw as the baseline: no progress.
    StreamSample stuck = validSample(1, 2);
    stuck.raw.counts[static_cast<size_t>(PerfEvent::Cycles)] =
        validSample(1, 1).raw.counts[static_cast<size_t>(
            PerfEvent::Cycles)];
    EXPECT_EQ(table.admit(1, stuck).verdict, Verdict::ZeroCycles);

    // The session advanced past the refused read: the next sample
    // with progress is accepted.
    EXPECT_EQ(table.admit(2, validSample(1, 3)).verdict,
              Verdict::Accepted);
}

TEST(SessionTable, QuarantinesRepeatOffenders)
{
    SessionTable table(config()); // threshold 3
    table.admit(0, validSample(1, 1));

    StreamSample bad = validSample(1, 2);
    bad.raw.counts[0] = std::nan("");
    EXPECT_FALSE(table.admit(1, bad).newlyQuarantined);
    bad.seq = 3;
    EXPECT_FALSE(table.admit(2, bad).newlyQuarantined);
    bad.seq = 4;
    const auto tipping = table.admit(3, bad);
    EXPECT_TRUE(tipping.newlyQuarantined);
    EXPECT_TRUE(table.isQuarantined(1));
    EXPECT_EQ(table.quarantinedCount(), 1u);

    // Further samples - even valid ones - are refused at the door.
    EXPECT_EQ(table.admit(4, validSample(1, 5)).verdict,
              Verdict::Quarantined);
    EXPECT_EQ(table.stats().rejectedQuarantined, 1u);
}

TEST(SessionTable, EvictsIdleSessions)
{
    SessionTable table(config()); // idle timeout 8 ticks
    table.admit(0, validSample(1, 1));
    table.admit(4, validSample(2, 1));
    EXPECT_EQ(table.active(), 2u);

    // At tick 9 client 1 has been silent 9 ticks, client 2 only 5.
    EXPECT_EQ(table.evictIdle(9), 1u);
    EXPECT_EQ(table.active(), 1u);
    EXPECT_FALSE(table.isQuarantined(1));

    // Swap-with-last must keep the surviving row addressable.
    EXPECT_EQ(table.admit(10, validSample(2, 2)).verdict,
              Verdict::Accepted);
}

TEST(SessionTable, EvictionReleasesQuarantine)
{
    SessionTable table(config());
    table.admit(0, validSample(1, 1));
    StreamSample bad = validSample(1, 2);
    bad.raw.counts[0] = std::nan("");
    for (uint64_t seq = 2; seq <= 4; ++seq) {
        bad.seq = seq;
        table.admit(1, bad);
    }
    ASSERT_EQ(table.quarantinedCount(), 1u);

    EXPECT_EQ(table.evictIdle(100), 1u);
    EXPECT_EQ(table.quarantinedCount(), 0u);
    EXPECT_EQ(table.stats().evicted, 1u);

    // The client may return and starts over with a fresh session.
    EXPECT_EQ(table.admit(101, validSample(1, 1)).verdict,
              Verdict::Baseline);
}

TEST(SessionTable, ContactKeepsQuarantinedSessionsAlive)
{
    SessionTable table(config());
    table.admit(0, validSample(1, 1));
    StreamSample bad = validSample(1, 2);
    bad.raw.counts[0] = std::nan("");
    for (uint64_t seq = 2; seq <= 4; ++seq) {
        bad.seq = seq;
        table.admit(1, bad);
    }
    ASSERT_TRUE(table.isQuarantined(1));

    // Keeps talking at tick 7: eviction is about silence, so the
    // sweep at tick 9 (only 2 idle ticks) keeps the session.
    table.admit(7, validSample(1, 10));
    EXPECT_EQ(table.evictIdle(9), 0u);
    EXPECT_TRUE(table.isQuarantined(1));
}

TEST(SessionTable, SlidingWattsWindow)
{
    SessionTable table(config()); // window of 4
    table.admit(0, validSample(1, 1));
    EXPECT_TRUE(std::isnan(table.windowMeanWatts(1)));
    EXPECT_TRUE(std::isnan(table.windowMeanWatts(99)));

    for (int i = 1; i <= 6; ++i)
        table.recordWatts(1, static_cast<double>(i * 10));
    // Window holds the last 4 records: 30, 40, 50, 60.
    EXPECT_DOUBLE_EQ(table.windowMeanWatts(1), 45.0);
}

TEST(SessionTable, EvictedQuarantinedRowNeverAliasesMovedSession)
{
    SessionTable table(config()); // threshold 3, idle timeout 8
    // Three clients in row order 1, 2, 3: client 2 sits mid-table.
    table.admit(0, validSample(1, 1));
    table.admit(0, validSample(2, 1));
    table.admit(0, validSample(3, 1));
    table.recordWatts(3, 80.0);
    table.recordWatts(3, 120.0);

    // Quarantine the mid-table client.
    StreamSample bad = validSample(2, 2);
    bad.raw.counts[0] = std::nan("");
    for (uint64_t seq = 2; seq <= 4; ++seq) {
        bad.seq = seq;
        table.admit(1, bad);
    }
    ASSERT_TRUE(table.isQuarantined(2));

    // Clients 1 and 3 keep talking; client 2 goes silent, so the
    // sweep evicts exactly the mid-table row and the last row
    // (client 3) is swapped into its slot.
    EXPECT_EQ(table.admit(7, validSample(1, 2)).verdict,
              Verdict::Accepted);
    EXPECT_EQ(table.admit(7, validSample(3, 2)).verdict,
              Verdict::Accepted);
    EXPECT_EQ(table.evictIdle(9), 1u);
    EXPECT_EQ(table.active(), 2u);
    EXPECT_EQ(table.quarantinedCount(), 0u);

    // The readmitted id must get a *fresh* session - not client 3's
    // moved row, and not the stale quarantine flag.
    EXPECT_FALSE(table.isQuarantined(2));
    EXPECT_EQ(table.admit(10, validSample(2, 1)).verdict,
              Verdict::Baseline);
    EXPECT_FALSE(table.isQuarantined(2));
    EXPECT_TRUE(std::isnan(table.windowMeanWatts(2)));

    // And the moved client's state survived the swap intact: its
    // watts window still averages, and its next delta is exact.
    EXPECT_DOUBLE_EQ(table.windowMeanWatts(3), 100.0);
    const auto next = table.admit(10, validSample(3, 3));
    ASSERT_EQ(next.verdict, Verdict::Accepted);
    for (int e = 0; e < numPerfEvents; ++e) {
        EXPECT_DOUBLE_EQ(
            next.deltas.counts[static_cast<size_t>(e)], 1000.0);
    }
    EXPECT_EQ(table.admit(10, validSample(1, 3)).verdict,
              Verdict::Accepted);
}

TEST(SessionTable, MemoryBytesTracksSessions)
{
    SessionTable table(config());
    const size_t empty = table.memoryBytes();
    for (uint64_t client = 1; client <= 256; ++client)
        table.admit(0, validSample(client, 1));
    EXPECT_GT(table.memoryBytes(), empty);
    // Per-session footprint stays in the hundreds of bytes, not
    // kilobytes (perfbench stream-hostile's bytes_per_session).
    EXPECT_LT(table.memoryBytes() / table.active(), 4096u);
}

TEST(SessionTable, MalformedConfigIsFatal)
{
    SessionConfig bad = config();
    bad.counterWidthBits = 53;
    EXPECT_THROW(SessionTable table(bad), FatalError);

    SessionConfig zero = config();
    zero.quarantineThreshold = 0;
    EXPECT_THROW(SessionTable table(zero), FatalError);
}

} // namespace
} // namespace stream
} // namespace tdp
