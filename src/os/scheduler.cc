/**
 * @file
 * Implementation of the scheduler.
 */

#include "os/scheduler.hh"

#include "common/logging.hh"

namespace tdp {

Scheduler::Scheduler(System &system, const std::string &name,
                     int core_count, int smt_per_core)
    : SimObject(system, name), coreCount_(core_count),
      smtPerCore_(smt_per_core)
{
    if (core_count <= 0 || smt_per_core <= 0)
        fatal("Scheduler: core/SMT counts must be positive");
    coreThreads_.resize(static_cast<size_t>(core_count));
}

void
Scheduler::attach(ThreadContext *thread)
{
    if (!thread)
        panic("Scheduler::attach: null thread");
    for (ThreadContext *t : threads_)
        if (t == thread)
            return;
    // Fill distinct physical cores before doubling up on SMT slots.
    const int index = static_cast<int>(threads_.size());
    threads_.push_back(thread);
    coreThreads_[static_cast<size_t>(index % coreCount_)].push_back(thread);
}

void
Scheduler::launch(ThreadContext *thread)
{
    attach(thread);
    if (thread->state() == ThreadState::NotStarted)
        thread->start();
}

void
Scheduler::launchAt(ThreadContext *thread, Seconds when)
{
    attach(thread);
    system().events().schedule(
        name() + ".launch." + thread->threadName(), secondsToTicks(when),
        [thread] {
            if (thread->state() == ThreadState::NotStarted)
                thread->start();
        });
}

const std::vector<ThreadContext *> &
Scheduler::threadsOnCore(int core) const
{
    if (core < 0 || core >= coreCount_)
        panic("Scheduler: core %d out of %d", core, coreCount_);
    return coreThreads_[static_cast<size_t>(core)];
}

std::vector<ThreadContext *>
Scheduler::runnableOnCore(int core) const
{
    std::vector<ThreadContext *> out;
    runnableOnCore(core, out);
    return out;
}

void
Scheduler::runnableOnCore(int core,
                          std::vector<ThreadContext *> &out) const
{
    out.clear();
    for (ThreadContext *t : threadsOnCore(core))
        if (t->state() == ThreadState::Runnable)
            out.push_back(t);
}

bool
Scheduler::allFinished() const
{
    for (ThreadContext *t : threads_)
        if (t->state() != ThreadState::Finished)
            return false;
    return true;
}

int
Scheduler::countInState(ThreadState state) const
{
    int count = 0;
    for (ThreadContext *t : threads_)
        if (t->state() == state)
            ++count;
    return count;
}

} // namespace tdp
