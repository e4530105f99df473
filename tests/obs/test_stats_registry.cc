/**
 * @file
 * StatsRegistry unit tests: registration semantics, histogram bucket
 * edges, reset, the disabled fast path and the per-thread shard merge.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "obs/stats_registry.hh"

namespace {

using namespace tdp;
using namespace tdp::obs;

TEST(StatsRegistry, RegistrationDedupesAndChecksKind)
{
    StatsRegistry reg;
    const StatId a = reg.counter("sim.events");
    const StatId b = reg.counter("sim.events");
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(reg.registeredCount(), 1u);

    // Same path as a different kind is a registration bug.
    EXPECT_THROW(reg.gauge("sim.events"), FatalError);
    EXPECT_THROW(reg.histogram("sim.events"), FatalError);
}

TEST(StatsRegistry, DisabledUpdatesAreDropped)
{
    StatsRegistry reg;
    const StatId id = reg.counter("dropped.counter");
    reg.add(id, 5);
    // The named conveniences don't even register while disabled.
    reg.addNamed("dropped.named", 7);

    const StatsRegistry::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("dropped.counter"), 0u);
    EXPECT_EQ(snap.counters.count("dropped.named"), 0u);
}

TEST(StatsRegistry, CountersAccumulate)
{
    StatsRegistry reg;
    reg.setEnabled(true);
    const StatId id = reg.counter("a.b.c");
    reg.add(id);
    reg.add(id, 41);
    EXPECT_EQ(reg.snapshot().counters.at("a.b.c"), 42u);
}

TEST(StatsRegistry, GaugeKeepsLastWrite)
{
    StatsRegistry reg;
    reg.setEnabled(true);
    const StatId id = reg.gauge("pool.size");
    reg.set(id, 3.0);
    reg.set(id, 8.5);
    EXPECT_DOUBLE_EQ(reg.snapshot().gauges.at("pool.size"), 8.5);
}

TEST(StatsRegistry, HistogramBucketEdges)
{
    StatsRegistry reg;
    reg.setEnabled(true);
    const StatId id = reg.histogram("lat");

    // Bucket 0 holds only the value 0; bucket b >= 1 holds
    // [2^(b-1), 2^b - 1].
    reg.observe(id, 0);
    reg.observe(id, 1);
    reg.observe(id, 2);
    reg.observe(id, 3);
    reg.observe(id, 4);
    reg.observe(id, 7);
    reg.observe(id, 8);
    reg.observe(id, ~uint64_t(0));

    const StatsRegistry::HistogramData h =
        reg.snapshot().histograms.at("lat");
    EXPECT_EQ(h.count, 8u);
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[1], 1u); // 1
    EXPECT_EQ(h.buckets[2], 2u); // 2, 3
    EXPECT_EQ(h.buckets[3], 2u); // 4, 7
    EXPECT_EQ(h.buckets[4], 1u); // 8
    EXPECT_EQ(h.buckets[64], 1u);
    EXPECT_EQ(h.sum, 0u + 1 + 2 + 3 + 4 + 7 + 8 + ~uint64_t(0));
}

TEST(StatsRegistry, BucketHelpersAgree)
{
    for (int b = 1; b < histogramBuckets; ++b) {
        const uint64_t low = histogramBucketLow(b);
        EXPECT_EQ(histogramBucketOf(low), b) << "bucket " << b;
        EXPECT_EQ(histogramBucketOf(low - 1), b - 1) << "bucket " << b;
    }
    EXPECT_EQ(histogramBucketOf(0), 0);
}

TEST(StatsRegistry, ResetZeroesButKeepsRegistrations)
{
    StatsRegistry reg;
    reg.setEnabled(true);
    const StatId c = reg.counter("x.count");
    const StatId g = reg.gauge("x.gauge");
    const StatId h = reg.histogram("x.hist");
    reg.add(c, 3);
    reg.set(g, 1.5);
    reg.observe(h, 9);

    reg.reset();
    EXPECT_EQ(reg.registeredCount(), 3u);
    const StatsRegistry::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("x.count"), 0u);
    EXPECT_DOUBLE_EQ(snap.gauges.at("x.gauge"), 0.0);
    EXPECT_EQ(snap.histograms.at("x.hist").count, 0u);

    // Old ids stay live after a reset.
    reg.add(c, 2);
    EXPECT_EQ(reg.snapshot().counters.at("x.count"), 2u);
}

TEST(StatsRegistry, ShardMergeAcrossThreads)
{
    StatsRegistry reg;
    reg.setEnabled(true);
    const StatId counter = reg.counter("mt.count");
    const StatId hist = reg.histogram("mt.hist");

    constexpr int threads = 8;
    constexpr int perThread = 10000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&reg, counter, hist] {
            for (int i = 0; i < perThread; ++i) {
                reg.add(counter);
                reg.observe(hist,
                            static_cast<uint64_t>(i % 17));
            }
        });
    }
    for (std::thread &worker : pool)
        worker.join();

    const StatsRegistry::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("mt.count"),
              uint64_t(threads) * perThread);
    EXPECT_EQ(snap.histograms.at("mt.hist").count,
              uint64_t(threads) * perThread);
}

TEST(StatsRegistry, ExitedThreadsRetireTheirShards)
{
    StatsRegistry reg;
    reg.setEnabled(true);
    const StatId counter = reg.counter("retire.count");
    const StatId gauge = reg.gauge("retire.gauge");
    const StatId hist = reg.histogram("retire.hist");

    // Short-lived threads one after another, as a pool that starts
    // its threads per call makes them: each exit folds its shard
    // into the totals and frees it.
    constexpr int threads = 64;
    for (int t = 0; t < threads; ++t) {
        std::thread([&reg, counter, gauge, hist, t] {
            reg.add(counter, 3);
            reg.set(gauge, static_cast<double>(t));
            reg.observe(hist, static_cast<uint64_t>(t));
        }).join();
        ASSERT_EQ(reg.shardCount(), 0u) << "thread " << t;
    }
    reg.add(counter);
    EXPECT_EQ(reg.shardCount(), 1u);

    const StatsRegistry::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("retire.count"), 3u * threads + 1);
    EXPECT_EQ(snap.gauges.at("retire.gauge"), threads - 1.0);
    const StatsRegistry::HistogramData &h =
        snap.histograms.at("retire.hist");
    EXPECT_EQ(h.count, uint64_t(threads));
    EXPECT_EQ(h.sum, uint64_t(threads) * (threads - 1) / 2);
    EXPECT_EQ(h.buckets[0], 1u);                 // the value 0
    EXPECT_EQ(h.buckets[histogramBucketOf(63)], 32u); // [32, 63]

    // The retired totals reset with the live shards.
    reg.reset();
    EXPECT_EQ(reg.snapshot().counters.at("retire.count"), 0u);
}

TEST(StatsRegistry, RegistryMayDieBeforeItsThreads)
{
    // A thread that outlives a registry it updated exits cleanly:
    // the registry freed the shard, and the exit finds no registry.
    auto reg = std::make_unique<StatsRegistry>();
    reg->setEnabled(true);
    const StatId counter = reg->counter("short.count");
    std::promise<void> added;
    std::promise<void> release;
    std::thread worker([&] {
        reg->add(counter);
        added.set_value();
        release.get_future().wait();
    });
    added.get_future().wait();
    EXPECT_EQ(reg->snapshot().counters.at("short.count"), 1u);
    reg.reset();
    release.set_value();
    worker.join();
}

TEST(StatsRegistry, SnapshotJsonIsStructured)
{
    StatsRegistry reg;
    reg.setEnabled(true);
    reg.addNamed("j.count", 2);
    reg.setNamed("j.gauge", 0.5);
    reg.observeNamed("j.hist", 3);

    std::ostringstream os;
    StatsRegistry::writeSnapshotJson(os, reg.snapshot());
    const std::string json = os.str();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"j.count\":2"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

} // namespace
