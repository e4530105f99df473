/**
 * @file
 * Process scheduler: places threads on SMT slots and exposes each
 * core's runnable set to the CPU models.
 *
 * Placement mirrors Linux of the era on the paper's 4-way SMP with
 * two hardware threads per package: threads fill distinct physical
 * cores first, then the second SMT slot of each core. When a core has
 * no runnable thread, the idle loop executes HLT and the core clock-
 * gates (the paper's "Halted Cycles" event).
 */

#ifndef TDP_OS_SCHEDULER_HH
#define TDP_OS_SCHEDULER_HH

#include <string>
#include <vector>

#include "os/thread_context.hh"
#include "sim/sim_object.hh"
#include "sim/system.hh"

namespace tdp {

/** Thread placement and per-core runnable sets. */
class Scheduler : public SimObject
{
  public:
    /**
     * @param core_count physical CPU packages.
     * @param smt_per_core hardware threads per package.
     */
    Scheduler(System &system, const std::string &name, int core_count,
              int smt_per_core);

    /**
     * Attach a thread and assign it an SMT slot. Threads beyond the
     * total slot count time-share the last-assigned slots (their
     * demand is merged; the paper's workloads never oversubscribe).
     */
    void attach(ThreadContext *thread);

    /** Start a thread now (attach first if needed). */
    void launch(ThreadContext *thread);

    /**
     * Schedule a launch at a future simulated time; used for the
     * paper's staggered workload starts.
     */
    void launchAt(ThreadContext *thread, Seconds when);

    /** All threads assigned to a core (any state), in attach order. */
    const std::vector<ThreadContext *> &threadsOnCore(int core) const;

    /** Runnable threads on a core this instant, in attach order. */
    std::vector<ThreadContext *> runnableOnCore(int core) const;

    /**
     * Fill `out` with the runnable threads on a core (clearing it
     * first). Allocation-free once `out` has capacity; the per-quantum
     * CPU path uses this with a reused buffer.
     */
    void runnableOnCore(int core,
                        std::vector<ThreadContext *> &out) const;

    /** Number of physical cores. */
    int coreCount() const { return coreCount_; }

    /** SMT slots per core. */
    int smtPerCore() const { return smtPerCore_; }

    /** All attached threads. */
    const std::vector<ThreadContext *> &threads() const
    {
        return threads_;
    }

    /** True when every attached thread has finished. */
    bool allFinished() const;

    /** Count of threads currently in the given state. */
    int countInState(ThreadState state) const;

  private:
    int coreCount_;
    int smtPerCore_;
    std::vector<ThreadContext *> threads_;
    // Threads assigned to each core, in attach order.
    std::vector<std::vector<ThreadContext *>> coreThreads_;
};

} // namespace tdp

#endif // TDP_OS_SCHEDULER_HH
