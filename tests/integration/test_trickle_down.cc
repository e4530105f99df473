/**
 * @file
 * Integration tests of the trickle-down event chains (paper Figure
 * 1): perturbations at the CPU or devices must propagate to the right
 * subsystem rails and counters, across module boundaries.
 */

#include <gtest/gtest.h>

#include "common/running_stats.hh"
#include "platform/server.hh"

namespace tdp {
namespace {

/** Mean measured power of a rail over a trace. */
double
railMean(const SampleTrace &trace, Rail rail)
{
    RunningStats s;
    for (const AlignedSample &sample : trace.rows())
        s.add(sample.measured(rail));
    return s.mean();
}

TEST(TrickleDown, CacheMissesReachDram)
{
    // mgrid is miss-heavy: memory power must rise with it while the
    // L3-miss counter explains the bus traffic.
    Server idle(1), loaded(1);
    loaded.runner().launchStaggered("mgrid", 8, 0.5, 0.0);
    const SampleTrace idle_trace = idle.runAndCollect(20.0);
    const SampleTrace load_trace =
        loaded.runAndCollect(20.0).slice(10.0, 21.0);

    EXPECT_GT(railMean(load_trace, Rail::Memory),
              railMean(idle_trace, Rail::Memory) + 8.0);
    // Counter chain: misses -> bus transactions.
    double misses = 0.0, bus = 0.0;
    for (const AlignedSample &s : load_trace.rows()) {
        misses += s.totalCount(PerfEvent::L3LoadMisses);
        bus += s.totalCount(PerfEvent::BusTransactions);
    }
    EXPECT_GT(misses, 0.0);
    EXPECT_GT(bus, misses); // writebacks + prefetches on top
}

TEST(TrickleDown, DiskActivityReachesIoAndDiskRails)
{
    Server idle(2), loaded(2);
    loaded.runner().launchStaggered("diskload", 8, 0.5, 1.5);
    const SampleTrace idle_trace = idle.runAndCollect(30.0);
    const SampleTrace load_trace =
        loaded.runAndCollect(60.0).slice(25.0, 61.0);

    EXPECT_GT(railMean(load_trace, Rail::Io),
              railMean(idle_trace, Rail::Io) + 0.8);
    EXPECT_GT(railMean(load_trace, Rail::Disk),
              railMean(idle_trace, Rail::Disk) + 0.2);

    // Counter chain: disk interrupts and DMA accesses visible at the
    // CPU.
    double disk_irq = 0.0, dma = 0.0;
    for (const AlignedSample &s : load_trace.rows()) {
        disk_irq += s.osDiskInterrupts;
        dma += s.totalCount(PerfEvent::DmaOtherAccesses);
    }
    EXPECT_GT(disk_irq, 100.0);
    EXPECT_GT(dma, 1e4);
}

TEST(TrickleDown, PagingTurnsMemoryPressureIntoDiskTraffic)
{
    // 8x mcf overcommits physical memory: the VM layer must generate
    // swap DMA - the "outside agent" of section 4.2.2.
    Server server(3);
    server.runner().launchStaggered("mcf", 8, 0.5, 0.0);
    server.run(40.0);
    EXPECT_GT(server.vm().pressure(), 0.0);
    EXPECT_GT(server.vm().lifetimeSwapBytes(), 1e6);
    EXPECT_GT(server.bus().lifetimeOfKind(BusTxKind::Dma), 1e4);
}

TEST(TrickleDown, HaltedCyclesVanishUnderLoad)
{
    Server idle(4), loaded(4);
    loaded.runner().launchStaggered("vortex", 8, 0.5, 0.0);
    const SampleTrace idle_trace = idle.runAndCollect(10.0);
    const SampleTrace load_trace =
        loaded.runAndCollect(15.0).slice(8.0, 16.0);

    auto halted_fraction = [](const SampleTrace &trace) {
        double halted = 0.0, cycles = 0.0;
        for (const AlignedSample &s : trace.rows()) {
            halted += s.totalCount(PerfEvent::HaltedCycles);
            cycles += s.totalCount(PerfEvent::Cycles);
        }
        return halted / cycles;
    };
    EXPECT_GT(halted_fraction(idle_trace), 0.95);
    EXPECT_LT(halted_fraction(load_trace), 0.05);
}

TEST(TrickleDown, SyncFlushCreatesCorrelatedBursts)
{
    // The DiskLoad signature: during a flush, disk interrupts and I/O
    // power rise together.
    Server server(5);
    server.runner().launchStaggered("diskload", 2, 0.5, 0.0);
    const SampleTrace trace =
        server.runAndCollect(60.0).slice(5.0, 61.0);
    RunningCovariance cov;
    for (const AlignedSample &s : trace.rows())
        cov.add(s.osDiskInterrupts, s.measured(Rail::Io));
    EXPECT_GT(cov.correlation(), 0.9);
}

TEST(TrickleDown, UncacheableAccessesFollowDriverActivity)
{
    Server idle(6), loaded(6);
    loaded.runner().launchStaggered("diskload", 4, 0.5, 1.0);
    const SampleTrace idle_trace = idle.runAndCollect(20.0);
    const SampleTrace load_trace =
        loaded.runAndCollect(30.0).slice(10.0, 31.0);
    auto unc_rate = [](const SampleTrace &trace) {
        double unc = 0.0;
        for (const AlignedSample &s : trace.rows())
            unc += s.totalCount(PerfEvent::UncacheableAccesses);
        return unc / static_cast<double>(trace.size());
    };
    EXPECT_GT(unc_rate(load_trace), unc_rate(idle_trace) + 100.0);
}

} // namespace
} // namespace tdp
