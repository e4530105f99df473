/**
 * @file
 * Tests for the measurement pipeline: DAQ sampling, sync-pulse
 * alignment, counter sampling and the aligned trace - using the
 * wired Server platform.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "platform/server.hh"

namespace tdp {
namespace {

TEST(MeasurementPipeline, ProducesOneSamplePerSecond)
{
    Server server(1);
    const SampleTrace &trace = server.runAndCollect(10.5);
    // Arming read at t~0, then ~1 Hz; expect ~9-10 aligned samples.
    EXPECT_GE(trace.size(), 8u);
    EXPECT_LE(trace.size(), 11u);
    for (const AlignedSample &s : trace.rows()) {
        EXPECT_NEAR(s.interval, 1.0, 0.01);
        EXPECT_EQ(s.perCpu.size(), 4u);
    }
}

TEST(MeasurementPipeline, SampleTimesMonotone)
{
    Server server(2);
    const SampleTrace &trace = server.runAndCollect(8.0);
    for (size_t i = 1; i < trace.size(); ++i)
        EXPECT_GT(trace.row(i).time, trace.row(i - 1).time);
}

TEST(MeasurementPipeline, JitterIsPresentButSmall)
{
    Server server(3);
    const SampleTrace &trace = server.runAndCollect(30.0);
    bool any_off_nominal = false;
    for (const AlignedSample &s : trace.rows()) {
        if (std::abs(s.interval - 1.0) > 1e-5)
            any_off_nominal = true;
        EXPECT_LT(std::abs(s.interval - 1.0), 2e-3);
    }
    EXPECT_TRUE(any_off_nominal);
}

TEST(MeasurementPipeline, CyclesTrackInterval)
{
    // The paper's normalisation premise: cycles = frequency x time.
    Server server(4);
    const SampleTrace &trace = server.runAndCollect(10.0);
    for (const AlignedSample &s : trace.rows()) {
        for (const CounterSnapshot &snap : s.perCpu) {
            EXPECT_NEAR(snap[PerfEvent::Cycles] / (2.8e9 * s.interval),
                        1.0, 0.01);
        }
    }
}

TEST(MeasurementPipeline, MeasuredIdleRailsNearGroundTruth)
{
    Server server(5);
    const SampleTrace &trace = server.runAndCollect(20.0);
    ASSERT_FALSE(trace.empty());
    double cpu = 0.0, chipset = 0.0, memory = 0.0, io = 0.0, disk = 0.0;
    for (const AlignedSample &s : trace.rows()) {
        cpu += s.measured(Rail::Cpu);
        chipset += s.measured(Rail::Chipset);
        memory += s.measured(Rail::Memory);
        io += s.measured(Rail::Io);
        disk += s.measured(Rail::Disk);
    }
    const double n = static_cast<double>(trace.size());
    EXPECT_NEAR(cpu / n, 38.6, 1.5);
    EXPECT_NEAR(chipset / n, 19.9, 0.5);
    EXPECT_NEAR(memory / n, 28.1, 0.5);
    EXPECT_NEAR(io / n, 32.9, 0.5);
    EXPECT_NEAR(disk / n, 21.6, 0.3);
}

TEST(MeasurementPipeline, CollectIsIncrementalAndIdempotent)
{
    Server server(6);
    server.run(5.0);
    const size_t first = server.rig().collect().size();
    const size_t again = server.rig().collect().size();
    EXPECT_EQ(first, again);
    server.run(5.0);
    EXPECT_GT(server.rig().collect().size(), first);
}

TEST(MeasurementPipeline, DaqHoldsAtMostTwoWindows)
{
    // The rig aligns at every sync pulse, so the DAQ holds the window
    // waiting for its reading and the open one, not the whole run.
    Server server(9);
    server.run(60.0);
    const CounterSampler::Params sampling;
    const Seconds quantum = ticksToSeconds(server.system().quantum());
    const double bound =
        2.0 * (sampling.period + sampling.jitter) / quantum + 1.0;
    EXPECT_LE(static_cast<double>(server.rig().daq().blocks().size()),
              bound);
    EXPECT_LE(server.rig().daq().pulses().size(), 3u);
    // Aligned already, before any collect().
    EXPECT_GE(server.rig().trace().size(), 58u);
}

TEST(MeasurementPipeline, OsInterruptDeltasMatchTimerRate)
{
    Server server(7);
    const SampleTrace &trace = server.runAndCollect(10.0);
    for (const AlignedSample &s : trace.rows()) {
        // 4 CPUs x 1000 Hz timer plus light NIC chatter.
        EXPECT_NEAR(s.osInterruptsTotal, 4000.0, 150.0);
        EXPECT_DOUBLE_EQ(s.osDiskInterrupts, 0.0);
    }
}

TEST(MeasurementPipeline, TraceSliceFilters)
{
    Server server(8);
    const SampleTrace &trace = server.runAndCollect(10.0);
    const SampleTrace sliced = trace.slice(3.0, 6.0);
    EXPECT_LT(sliced.size(), trace.size());
    for (const AlignedSample &s : sliced.rows()) {
        EXPECT_GE(s.time, 3.0);
        EXPECT_LT(s.time, 6.0);
    }
}

TEST(MeasurementPipeline, CsvExportHasHeaderAndRows)
{
    Server server(9);
    const SampleTrace &trace = server.runAndCollect(5.0);
    std::ostringstream os;
    trace.writeCsv(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("fetched_uops"), std::string::npos);
    EXPECT_NE(text.find("watts_CPU"), std::string::npos);
    size_t lines = 0;
    for (char c : text)
        if (c == '\n')
            ++lines;
    EXPECT_EQ(lines, trace.size() + 1);
}

TEST(MeasurementPipeline, DeterministicAcrossIdenticalRuns)
{
    auto fingerprint = [](uint64_t seed) {
        Server server(seed);
        server.runner().launchStaggered("gcc", 2, 0.5, 0.0);
        const SampleTrace &trace = server.runAndCollect(6.0);
        double acc = 0.0;
        for (const AlignedSample &s : trace.rows()) {
            acc += s.measured(Rail::Cpu) +
                   s.totalCount(PerfEvent::FetchedUops) * 1e-9;
        }
        return acc;
    };
    EXPECT_DOUBLE_EQ(fingerprint(77), fingerprint(77));
    EXPECT_NE(fingerprint(77), fingerprint(78));
}

} // namespace
} // namespace tdp
