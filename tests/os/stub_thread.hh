/**
 * @file
 * Minimal ThreadContext stub shared by the OS and CPU test suites.
 */

#ifndef TDP_TESTS_OS_STUB_THREAD_HH
#define TDP_TESTS_OS_STUB_THREAD_HH

#include <string>

#include "os/thread_context.hh"

namespace tdp {

/** Scriptable thread: fixed demand, manual state transitions. */
class StubThread : public ThreadContext
{
  public:
    explicit StubThread(std::string name, ThreadDemand demand = {},
                        double footprint_mb = 0.0)
        : name_(std::move(name)), demand_(demand),
          footprintMb_(footprint_mb)
    {
    }

    const std::string &threadName() const override { return name_; }
    ThreadState state() const override { return state_; }
    const ThreadDemand &demand() const override { return demand_; }

    void
    commit(double uops, Seconds dt) override
    {
        committedUops += uops;
        committedTime += dt;
        ++commitCalls;
    }

    double footprintMB() const override { return footprintMb_; }

    void start() override { state_ = ThreadState::Runnable; }

    /** Manual state control for tests. */
    void setState(ThreadState s) { state_ = s; }

    /** Mutable demand for tests. */
    void setDemand(const ThreadDemand &d) { demand_ = d; }

    double committedUops = 0.0;
    double committedTime = 0.0;
    int commitCalls = 0;

  private:
    std::string name_;
    ThreadDemand demand_;
    double footprintMb_;
    ThreadState state_ = ThreadState::NotStarted;
};

} // namespace tdp

#endif // TDP_TESTS_OS_STUB_THREAD_HH
