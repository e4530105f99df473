/**
 * @file
 * Tests for the System scheduler and SimObject registration.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/sim_object.hh"
#include "sim/system.hh"

namespace tdp {
namespace {

/** Minimal ticked object that records its invocations. */
class Probe : public SimObject, public Ticked
{
  public:
    Probe(System &system, const std::string &name, TickPhase phase,
          std::vector<std::string> *log)
        : SimObject(system, name), log_(log)
    {
        system.addTicked(this, phase);
    }

    void startup() override { started_ = true; }

    void
    tickUpdate(Tick now, Tick quantum) override
    {
        ++ticks_;
        lastNow_ = now;
        lastQuantum_ = quantum;
        if (log_)
            log_->push_back(name());
    }

    int ticks_ = 0;
    bool started_ = false;
    Tick lastNow_ = 0;
    Tick lastQuantum_ = 0;

  private:
    std::vector<std::string> *log_;
};

TEST(System, RunsQuantaAndStartsObjects)
{
    System sys(1);
    Probe probe(sys, "p", TickPhase::Cpu, nullptr);
    sys.runFor(0.010);
    EXPECT_TRUE(probe.started_);
    EXPECT_EQ(probe.ticks_, 10);
    EXPECT_EQ(probe.lastQuantum_, ticksPerMs);
    EXPECT_EQ(sys.quantaExecuted(), 10u);
}

TEST(System, PhaseOrderingRespected)
{
    System sys(1);
    std::vector<std::string> log;
    // Register out of order; phases must still sort.
    Probe late(sys, "measure", TickPhase::Measure, &log);
    Probe early(sys, "workload", TickPhase::Workload, &log);
    Probe mid(sys, "cpu", TickPhase::Cpu, &log);
    sys.runFor(0.001);
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0], "workload");
    EXPECT_EQ(log[1], "cpu");
    EXPECT_EQ(log[2], "measure");
}

TEST(System, SamePhaseKeepsRegistrationOrder)
{
    System sys(1);
    std::vector<std::string> log;
    Probe a(sys, "first", TickPhase::Memory, &log);
    Probe b(sys, "second", TickPhase::Memory, &log);
    sys.runFor(0.001);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0], "first");
    EXPECT_EQ(log[1], "second");
}

TEST(System, DuplicateNamesRejected)
{
    System sys(1);
    Probe a(sys, "dup", TickPhase::Cpu, nullptr);
    EXPECT_THROW(Probe(sys, "dup", TickPhase::Cpu, nullptr), FatalError);
}

TEST(System, FindObject)
{
    System sys(1);
    Probe a(sys, "needle", TickPhase::Cpu, nullptr);
    EXPECT_EQ(sys.findObject("needle"), &a);
    EXPECT_EQ(sys.findObject("missing"), nullptr);
}

TEST(System, EventsInterleaveWithQuanta)
{
    System sys(1);
    Probe probe(sys, "p", TickPhase::Cpu, nullptr);
    int ticks_at_event = -1;
    sys.events().schedule("check", 5 * ticksPerMs, [&] {
        ticks_at_event = probe.ticks_;
    });
    sys.runFor(0.010);
    // The event at t=5ms fires before the quantum starting at 5ms:
    // exactly 5 quanta (0..4ms) have run.
    EXPECT_EQ(ticks_at_event, 5);
}

TEST(System, RunForIsCumulative)
{
    System sys(1);
    Probe probe(sys, "p", TickPhase::Cpu, nullptr);
    sys.runFor(0.002);
    sys.runFor(0.003);
    EXPECT_EQ(probe.ticks_, 5);
}

TEST(System, MakeRngIsDeterministicPerName)
{
    System a(42), b(42), c(43);
    EXPECT_EQ(a.makeRng("x").next(), b.makeRng("x").next());
    EXPECT_NE(a.makeRng("x").next(), c.makeRng("x").next());
    EXPECT_NE(a.makeRng("x").next(), a.makeRng("y").next());
}

TEST(System, ZeroQuantumRejected)
{
    EXPECT_THROW(System(1, 0), FatalError);
}

TEST(System, NegativeDurationRejected)
{
    System sys(1);
    EXPECT_THROW(sys.runFor(-1.0), FatalError);
}

} // namespace
} // namespace tdp
