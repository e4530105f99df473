/**
 * @file
 * Tests for the trace CSV round trip (offline analysis path).
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "measure/trace.hh"

namespace tdp {
namespace {

AlignedSample
sample(double time, double cpu_watts, double uops_total)
{
    AlignedSample s;
    s.time = time;
    s.interval = 1.0002;
    s.perCpu.resize(4);
    for (CounterSnapshot &snap : s.perCpu) {
        snap[PerfEvent::Cycles] = 2.8e9;
        snap[PerfEvent::FetchedUops] = uops_total / 4.0;
        snap[PerfEvent::BusTransactions] = 1e6;
    }
    s.osInterruptsTotal = 4000.0;
    s.osDiskInterrupts = 120.0;
    s.osDeviceInterrupts = 150.0;
    s.measuredWatts[static_cast<size_t>(Rail::Cpu)] = cpu_watts;
    s.measuredWatts[static_cast<size_t>(Rail::Chipset)] = 19.9;
    return s;
}

TEST(TraceCsv, RoundTripPreservesTotals)
{
    SampleTrace original;
    original.add(sample(1.0, 160.25, 8.4e9));
    original.add(sample(2.0, 42.5, 1.1e9));

    std::stringstream buffer;
    original.writeCsv(buffer);
    const SampleTrace restored = SampleTrace::readCsv(buffer, 4);

    ASSERT_EQ(restored.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_NEAR(restored.row(i).time, original.row(i).time, 1e-3);
        EXPECT_NEAR(restored.row(i).interval, original.row(i).interval, 1e-5);
        EXPECT_NEAR(restored.row(i).totalCount(PerfEvent::FetchedUops),
                    original.row(i).totalCount(PerfEvent::FetchedUops),
                    1.0);
        EXPECT_NEAR(restored.row(i).measured(Rail::Cpu),
                    original.row(i).measured(Rail::Cpu), 1e-3);
        EXPECT_NEAR(restored.row(i).osDiskInterrupts,
                    original.row(i).osDiskInterrupts, 0.1);
        EXPECT_EQ(restored.row(i).perCpu.size(), 4u);
    }
}

TEST(TraceCsv, RoundTripWithDifferentCpuCount)
{
    SampleTrace original;
    original.add(sample(1.0, 80.0, 2e9));
    std::stringstream buffer;
    original.writeCsv(buffer);
    const SampleTrace restored = SampleTrace::readCsv(buffer, 2);
    ASSERT_EQ(restored.row(0).perCpu.size(), 2u);
    // Totals are preserved regardless of how the counts are spread.
    EXPECT_NEAR(restored.row(0).totalCount(PerfEvent::FetchedUops), 2e9,
                1.0);
}

TEST(TraceCsv, EmptyTraceRoundTrips)
{
    SampleTrace original;
    std::stringstream buffer;
    original.writeCsv(buffer);
    const SampleTrace restored = SampleTrace::readCsv(buffer);
    EXPECT_TRUE(restored.empty());
}

TEST(TraceCsv, MalformedInputsFatal)
{
    {
        std::istringstream bad("not,a,header\n1,2,3\n");
        EXPECT_THROW(SampleTrace::readCsv(bad), FatalError);
    }
    {
        std::stringstream buffer;
        SampleTrace t;
        t.add(sample(1.0, 80.0, 2e9));
        t.writeCsv(buffer);
        std::string text = buffer.str();
        text += "1,2,3\n"; // truncated row
        std::istringstream bad(text);
        EXPECT_THROW(SampleTrace::readCsv(bad), FatalError);
    }
    {
        std::istringstream bad("");
        EXPECT_NO_THROW(SampleTrace::readCsv(bad));
    }
    EXPECT_THROW(
        [] {
            std::istringstream empty("");
            SampleTrace::readCsv(empty, 0);
        }(),
        FatalError);
}

} // namespace
} // namespace tdp
