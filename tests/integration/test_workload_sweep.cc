/**
 * @file
 * Property sweep over all twelve paper workloads: every run must
 * satisfy the physical and accounting invariants of the simulated
 * machine, whatever the workload does.
 */

#include <gtest/gtest.h>

#include "common/running_stats.hh"
#include "platform/server.hh"
#include "workloads/suite.hh"

namespace tdp {
namespace {

class WorkloadSweep : public ::testing::TestWithParam<std::string>
{
  protected:
    /** Run the named workload briefly and collect the trace. */
    SampleTrace
    run()
    {
        Server server(0xF00D);
        const std::string &name = GetParam();
        if (name != "idle")
            server.runner().launchStaggered(name, 8, 0.5, 0.0);
        server_total_uops_ = 0.0;
        server.run(40.0);
        const SampleTrace trace =
            server.rig().collect().slice(5.0, 41.0);
        for (int i = 0; i < server.cpus().coreCount(); ++i) {
            server_total_uops_ +=
                server.cpus().core(i).counters().lifetime(
                    PerfEvent::FetchedUops);
        }
        return trace;
    }

    double server_total_uops_ = 0.0;
};

TEST_P(WorkloadSweep, RailsWithinPhysicalBounds)
{
    const SampleTrace trace = run();
    ASSERT_GT(trace.size(), 20u);
    for (const AlignedSample &s : trace.rows()) {
        // CPU: between deep idle and 4x max package power.
        EXPECT_GT(s.measured(Rail::Cpu), 30.0);
        EXPECT_LT(s.measured(Rail::Cpu), 4.0 * 52.0);
        // Chipset: constant-ish domain.
        EXPECT_GT(s.measured(Rail::Chipset), 15.0);
        EXPECT_LT(s.measured(Rail::Chipset), 23.0);
        // Memory: background to saturated DIMMs.
        EXPECT_GT(s.measured(Rail::Memory), 25.0);
        EXPECT_LT(s.measured(Rail::Memory), 55.0);
        // I/O: static floor; the ceiling allows the dataset-load
        // burst when all eight instances stream their inputs at the
        // full disk rate.
        EXPECT_GT(s.measured(Rail::Io), 31.0);
        EXPECT_LT(s.measured(Rail::Io), 46.0);
        // Disk: rotation floor; ceiling = idle + both disks seeking
        // and transferring simultaneously.
        EXPECT_GT(s.measured(Rail::Disk), 21.0);
        EXPECT_LT(s.measured(Rail::Disk), 29.1);
    }
}

TEST_P(WorkloadSweep, CounterAccountingInvariants)
{
    const SampleTrace trace = run();
    for (const AlignedSample &s : trace.rows()) {
        for (const CounterSnapshot &snap : s.perCpu) {
            const double cycles = snap[PerfEvent::Cycles];
            EXPECT_GT(cycles, 0.0);
            // Halted cycles never exceed cycles.
            EXPECT_LE(snap[PerfEvent::HaltedCycles], cycles * 1.0001);
            // Fetch bounded by width.
            EXPECT_LE(snap[PerfEvent::FetchedUops], 3.0 * cycles);
            // Bus transactions include every component the PMU tags.
            EXPECT_GE(snap[PerfEvent::BusTransactions],
                      snap[PerfEvent::L3LoadMisses] -
                          1e-6 * cycles);
            EXPECT_GE(snap[PerfEvent::BusTransactions],
                      snap[PerfEvent::DmaOtherAccesses] - 1e-9);
            EXPECT_GE(snap[PerfEvent::BusTransactions],
                      snap[PerfEvent::PrefetchTransactions] - 1e-9);
            // Nothing is negative.
            for (double c : snap.counts)
                EXPECT_GE(c, 0.0);
        }
        EXPECT_GE(s.osInterruptsTotal, 0.0);
        EXPECT_LE(s.osDiskInterrupts, s.osInterruptsTotal + 1e-9);
        EXPECT_LE(s.osDeviceInterrupts, s.osInterruptsTotal + 1e-9);
    }
}

TEST_P(WorkloadSweep, PowerTracksActivityAcrossSamples)
{
    // Within one workload, CPU power and (active, uops) must move
    // together: the correlation the whole paper rests on.
    const SampleTrace trace = run();
    RunningCovariance cov;
    RunningStats cpu_power;
    for (const AlignedSample &s : trace.rows()) {
        double activity = 0.0;
        for (const CounterSnapshot &snap : s.perCpu) {
            activity += (snap[PerfEvent::Cycles] -
                         snap[PerfEvent::HaltedCycles]) /
                            snap[PerfEvent::Cycles] +
                        snap[PerfEvent::FetchedUops] /
                            snap[PerfEvent::Cycles];
        }
        cov.add(activity, s.measured(Rail::Cpu));
        cpu_power.add(s.measured(Rail::Cpu));
    }
    // Steady workloads have nearly constant power: correlation is
    // then mostly sensor noise. Only demand correlation when real
    // variation exists (phase structure, ramps).
    if (cpu_power.stddev() > 2.0) {
        EXPECT_GT(cov.correlation(), 0.5) << GetParam();
    }
}

TEST_P(WorkloadSweep, DeterministicFingerprint)
{
    const SampleTrace a = run();
    const double uops_a = server_total_uops_;
    const SampleTrace b = run();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_DOUBLE_EQ(uops_a, server_total_uops_);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.row(i).measured(Rail::Cpu),
                         b.row(i).measured(Rail::Cpu));
        EXPECT_DOUBLE_EQ(a.row(i).totalCount(PerfEvent::BusTransactions),
                         b.row(i).totalCount(PerfEvent::BusTransactions));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperWorkloads, WorkloadSweep,
    ::testing::Values("idle", "gcc", "mcf", "vortex", "art", "lucas",
                      "mesa", "mgrid", "wupwise", "dbt2", "specjbb",
                      "diskload"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace tdp
