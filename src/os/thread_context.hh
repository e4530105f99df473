/**
 * @file
 * Thread context: the contract between workloads, the scheduler and
 * the CPU cores.
 *
 * A thread advertises a demand vector (the microarchitectural rates
 * its current phase would sustain) and is given committed work back by
 * the core that ran it. Workload implementations live in
 * src/workloads; the OS and CPU layers only see this interface.
 */

#ifndef TDP_OS_THREAD_CONTEXT_HH
#define TDP_OS_THREAD_CONTEXT_HH

#include <string>

#include "common/units.hh"

namespace tdp {

/** Lifecycle of a workload thread. */
enum class ThreadState
{
    NotStarted, ///< created but not yet launched
    Runnable,   ///< occupying its SMT slot and executing
    Blocked,    ///< waiting on I/O (disk read, sync)
    Finished,   ///< ran to completion
};

/**
 * Microarchitectural demand of a thread's current phase. Rates are
 * per-uop/per-cycle intensities; the CPU core turns them into event
 * counts given the cycles it actually delivers.
 */
struct ThreadDemand
{
    /** Fetch demand in uops/cycle this phase can sustain alone. */
    double uopsPerCycle = 0.0;

    /** L3 load misses per thousand committed uops. */
    double l3MissPerKuop = 0.0;

    /** Dirty-line writebacks per demand L3 miss. */
    double writebackFraction = 0.3;

    /** Hardware-prefetched lines per demand L3 miss. */
    double prefetchPerMiss = 0.3;

    /** TLB misses per million uops. */
    double tlbMissPerMuop = 0.0;

    /** Uncacheable (MMIO) accesses per million uops. */
    double uncacheablePerMuop = 0.0;

    /** DRAM row-buffer hit rate of this thread's accesses. */
    double pageHitRate = 0.55;

    /**
     * Speculative-execution power expressed as equivalent extra
     * uops/cycle of fetch - the component a fetch-based power model
     * cannot see (the paper's mcf discussion, section 4.3).
     */
    double specUopsEquiv = 0.0;

    /** Sensitivity to memory-bus congestion in [0, 1]. */
    double memBoundness = 0.0;

    /**
     * Fraction of the package's active power that fine-grain clock
     * gating removes during this code's long memory stalls, in [0, 1].
     * Invisible to the halted-cycles counter (the core is stalled, not
     * HLTed) - one source of model error on memory-bound FP codes.
     */
    double clockGatingFactor = 0.0;

    /**
     * Fraction of wall time the thread actually occupies its slot
     * (database workers sleep on locks and I/O; SPEC threads run flat
     * out). Drives the halted-cycle accounting.
     */
    double dutyCycle = 1.0;

    /**
     * Chipset-rail crosstalk at full machine occupancy (W). The
     * paper's chipset rail is derived from multiple power domains with
     * a workload-dependent, non-deterministic relationship (section
     * 4.2.5); this term reproduces that observed per-workload bias.
     */
    double chipsetCrosstalkW = 0.0;
};

/**
 * Abstract workload thread. The scheduler owns placement; the core
 * calls demand()/commit() each quantum the thread runs.
 */
class ThreadContext
{
  public:
    virtual ~ThreadContext() = default;

    /** Diagnostic name. */
    virtual const std::string &threadName() const = 0;

    /** Current lifecycle state. */
    virtual ThreadState state() const = 0;

    /**
     * Demand vector of the current phase. Only commit() changes it,
     * so a caller must finish reading it before committing.
     */
    virtual const ThreadDemand &demand() const = 0;

    /**
     * Account committed execution and let the thread progress: advance
     * phases, issue file I/O, call sync(), possibly finish.
     *
     * @param uops uops actually committed this quantum.
     * @param dt quantum wall time in seconds.
     */
    virtual void commit(double uops, Seconds dt) = 0;

    /** Resident set size, used by the VM layer for paging pressure. */
    virtual double footprintMB() const = 0;

    /** Transition NotStarted -> Runnable. */
    virtual void start() = 0;
};

} // namespace tdp

#endif // TDP_OS_THREAD_CONTEXT_HH
