/**
 * @file
 * Tests for the scheduler's placement and launch policies.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "os/scheduler.hh"
#include "sim/system.hh"

#include "stub_thread.hh"

namespace tdp {
namespace {

TEST(Scheduler, FillsDistinctCoresFirst)
{
    System sys(1);
    Scheduler sched(sys, "sched", 4, 2);
    StubThread t0("t0"), t1("t1"), t2("t2"), t3("t3"), t4("t4");
    for (StubThread *t : {&t0, &t1, &t2, &t3, &t4})
        sched.launch(t);
    // First four land on cores 0..3; the fifth doubles up on core 0.
    for (int core = 0; core < 4; ++core)
        EXPECT_GE(sched.threadsOnCore(core).size(), 1u);
    EXPECT_EQ(sched.threadsOnCore(0).size(), 2u);
}

TEST(Scheduler, RunnableFiltersByState)
{
    System sys(1);
    Scheduler sched(sys, "sched", 2, 2);
    StubThread a("a"), b("b");
    sched.launch(&a);
    sched.launch(&b);
    EXPECT_EQ(sched.runnableOnCore(0).size(), 1u);
    a.setState(ThreadState::Blocked);
    EXPECT_TRUE(sched.runnableOnCore(0).empty());
    EXPECT_EQ(sched.runnableOnCore(1).size(), 1u);
}

TEST(Scheduler, CoreListsKeepAttachOrderAndSkipNonRunnable)
{
    System sys(1);
    Scheduler sched(sys, "sched", 2, 2);
    StubThread t0("t0"), t1("t1"), t2("t2"), t3("t3"), t4("t4");
    for (StubThread *t : {&t0, &t1, &t2, &t3, &t4})
        sched.launch(t);
    using List = std::vector<ThreadContext *>;
    EXPECT_EQ(sched.threadsOnCore(0), (List{&t0, &t2, &t4}));
    EXPECT_EQ(sched.threadsOnCore(1), (List{&t1, &t3}));
    EXPECT_EQ(sched.runnableOnCore(0), (List{&t0, &t2, &t4}));

    t2.setState(ThreadState::Blocked);
    t3.setState(ThreadState::Finished);
    EXPECT_EQ(sched.runnableOnCore(0), (List{&t0, &t4}));
    EXPECT_EQ(sched.runnableOnCore(1), (List{&t1}));
    // The buffer overload clears what it is given.
    List reused = {&t3, &t3};
    sched.runnableOnCore(1, reused);
    EXPECT_EQ(reused, (List{&t1}));
    // Every thread stays on its core in any state.
    EXPECT_EQ(sched.threadsOnCore(0), (List{&t0, &t2, &t4}));
    EXPECT_THROW(sched.threadsOnCore(2), PanicError);
}

TEST(Scheduler, LaunchAtFiresOnSchedule)
{
    System sys(1);
    Scheduler sched(sys, "sched", 2, 2);
    StubThread a("a");
    sched.launchAt(&a, 0.005);
    sys.runFor(0.004);
    EXPECT_EQ(a.state(), ThreadState::NotStarted);
    sys.runFor(0.002);
    EXPECT_EQ(a.state(), ThreadState::Runnable);
}

TEST(Scheduler, DoubleAttachIsIdempotent)
{
    System sys(1);
    Scheduler sched(sys, "sched", 2, 2);
    StubThread a("a");
    sched.attach(&a);
    sched.attach(&a);
    EXPECT_EQ(sched.threads().size(), 1u);
}

TEST(Scheduler, LaunchIsIdempotentOnStartedThreads)
{
    System sys(1);
    Scheduler sched(sys, "sched", 2, 2);
    StubThread a("a");
    sched.launch(&a);
    EXPECT_NO_THROW(sched.launch(&a));
    EXPECT_EQ(a.state(), ThreadState::Runnable);
}

TEST(Scheduler, StateCounting)
{
    System sys(1);
    Scheduler sched(sys, "sched", 2, 2);
    StubThread a("a"), b("b"), c("c");
    sched.launch(&a);
    sched.launch(&b);
    sched.attach(&c);
    b.setState(ThreadState::Finished);
    EXPECT_EQ(sched.countInState(ThreadState::Runnable), 1);
    EXPECT_EQ(sched.countInState(ThreadState::Finished), 1);
    EXPECT_EQ(sched.countInState(ThreadState::NotStarted), 1);
    EXPECT_FALSE(sched.allFinished());
}

TEST(Scheduler, NullAttachPanics)
{
    System sys(1);
    Scheduler sched(sys, "sched", 2, 2);
    EXPECT_THROW(sched.attach(nullptr), PanicError);
}

TEST(Scheduler, BadGeometryRejected)
{
    System sys(1);
    EXPECT_THROW(Scheduler(sys, "s1", 0, 2), FatalError);
    EXPECT_THROW(Scheduler(sys, "s2", 2, 0), FatalError);
}

} // namespace
} // namespace tdp
