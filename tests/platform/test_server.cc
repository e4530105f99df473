/**
 * @file
 * Tests for the wired server platform and the chipset power domain.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "platform/server.hh"

namespace tdp {
namespace {

TEST(Server, DefaultGeometryMatchesPaperMachine)
{
    Server server(1);
    EXPECT_EQ(server.cpus().coreCount(), 4);
    EXPECT_EQ(server.scheduler().smtPerCore(), 2);
    EXPECT_EQ(server.disks().disks().size(), 2u);
    EXPECT_GE(server.interrupts().vectorCount(), 3); // nic, hba, timer
}

TEST(Server, AllRailsLiveAfterOneQuantum)
{
    Server server(2);
    server.run(0.002);
    EXPECT_GT(server.cpus().lastPower(), 0.0);
    EXPECT_GT(server.chipset().lastPower(), 0.0);
    EXPECT_GT(server.memory().lastPower(), 0.0);
    EXPECT_GT(server.ioChips().lastPower(), 0.0);
    EXPECT_GT(server.disks().lastPower(), 0.0);
}

TEST(Server, CustomParamsRespected)
{
    Server::Params params;
    params.cpuCount = 2;
    params.disks.diskCount = 4;
    params.memory.dimmCount = 4;
    Server server(3, params);
    EXPECT_EQ(server.cpus().coreCount(), 2);
    EXPECT_EQ(server.disks().disks().size(), 4u);
    EXPECT_EQ(server.memory().dimms().size(), 4u);
}

TEST(Server, ChipsetPowerNearConstantWhenIdle)
{
    Server server(4);
    server.run(5.0);
    EXPECT_NEAR(server.chipset().lastPower(), 19.9, 0.5);
}

TEST(Server, TotalIdlePowerMatchesPaperTable1)
{
    Server server(5);
    const SampleTrace &trace = server.runAndCollect(30.0);
    ASSERT_GT(trace.size(), 20u);
    double total = 0.0;
    for (const AlignedSample &s : trace.rows())
        for (int r = 0; r < numRails; ++r)
            total += s.measured(static_cast<Rail>(r));
    total /= static_cast<double>(trace.size());
    // Paper Table 1: idle total 141 W.
    EXPECT_NEAR(total, 141.0, 4.0);
}

TEST(Server, IndependentInstancesDoNotInterfere)
{
    Server a(6), b(6);
    a.runner().launchStaggered("gcc", 4, 0.5, 0.0);
    b.runner().launchStaggered("gcc", 4, 0.5, 0.0);
    a.run(3.0);
    b.run(3.0);
    EXPECT_DOUBLE_EQ(a.cpus().lastPower(), b.cpus().lastPower());
    EXPECT_DOUBLE_EQ(a.memory().lastPower(), b.memory().lastPower());
}

TEST(Server, DvfsHookReducesCpuPower)
{
    Server nominal(7), throttled(7);
    nominal.runner().launchStaggered("vortex", 8, 0.2, 0.0);
    throttled.runner().launchStaggered("vortex", 8, 0.2, 0.0);
    for (int i = 0; i < 4; ++i)
        throttled.cpus().core(i).clock().setFrequency(1.4e9);
    nominal.run(10.0);
    throttled.run(10.0);
    EXPECT_LT(throttled.cpus().lastPower(),
              nominal.cpus().lastPower() - 30.0);
}

} // namespace
} // namespace tdp
