/**
 * @file
 * One physical CPU package (a Pentium 4 Xeon class core with two SMT
 * hardware threads): converts thread demand into executed uops, cache
 * and bus traffic, PMU event counts and ground-truth power.
 */

#ifndef TDP_CPU_CPU_CORE_HH
#define TDP_CPU_CPU_CORE_HH

#include <string>
#include <vector>

#include "common/random.hh"
#include "common/units.hh"
#include "cpu/perf_counters.hh"
#include "os/thread_context.hh"
#include "sim/clock.hh"

namespace tdp {

/**
 * Per-quantum execution inputs, gathered by the CpuComplex.
 */
struct CoreQuantumInputs
{
    /** Runnable threads placed on this core (at most SMT width). */
    std::vector<ThreadContext *> threads;

    /** Per-thread VM stall factors, parallel to threads. */
    std::vector<double> stallFactors;

    /** Bus congestion throttle from the previous quantum, (0, 1]. */
    double busThrottle = 1.0;

    /** Kernel uops this CPU must execute this quantum. */
    double kernelUops = 0.0;

    /** Interrupts delivered to this CPU this quantum. */
    double interrupts = 0.0;

    /** Driver MMIO accesses executed on this CPU this quantum. */
    double mmioAccesses = 0.0;

    /** Snooped DMA/other bus accesses attributed to this CPU. */
    double dmaSnoopShare = 0.0;
};

/**
 * Per-quantum execution outputs consumed by the CpuComplex.
 */
struct CoreQuantumOutputs
{
    /** Demand cache-line fills put on the bus. */
    double demandFills = 0.0;

    /** Dirty writebacks put on the bus. */
    double writebacks = 0.0;

    /** Hardware prefetch fills put on the bus. */
    double prefetches = 0.0;

    /** Uncacheable accesses put on the bus. */
    double uncacheable = 0.0;

    /** Traffic-weighted DRAM page-hit rate numerator. */
    double pageHitWeight = 0.0;

    /** Traffic weight (denominator for the page-hit blend). */
    double trafficWeight = 0.0;

    /** Chipset crosstalk contribution of the running threads (W). */
    double chipsetCrosstalk = 0.0;

    /** Ground-truth package power this quantum (W). */
    Watts power = 0.0;
};

/**
 * Physical CPU package model.
 */
class CpuCore
{
  public:
    /** Microarchitectural and electrical configuration. */
    struct Params
    {
        /** Nominal clock (Hz). */
        Hertz clockHz = 2.8e9;

        /** Fetch width (uops/cycle). */
        double fetchWidth = 3.0;

        /** Throughput factor when both SMT slots are busy. */
        double smtEfficiency = 0.92;

        /** Package power fully halted (W) - clock gated. */
        double haltedPower = 9.25;

        /** Additional power when active but not fetching (W). */
        double activePower = 26.45;

        /** Power per fetched uop per cycle (W). */
        double powerPerUopPerCycle = 4.31;

        /** L3 misses per kuop of kernel-mode code. */
        double kernelL3MissPerKuop = 1.2;

        /** Cache lines fetched per TLB miss (page-walk traffic). */
        double pageWalkLinesPerTlbMiss = 2.0;

        /** Gaussian workload power jitter per quantum (W). */
        double powerNoiseSigma = 0.22;

        /** Uops to service one interrupt (dispatch + handler entry). */
        double uopsPerInterrupt = 900.0;

        /** Cycles a halted core stays awake after an interrupt. */
        double wakeCyclesPerInterrupt = 16000.0;
    };

    /**
     * @param name diagnostic name, e.g. "cpu0".
     * @param params configuration.
     * @param rng private noise stream.
     */
    CpuCore(std::string name, const Params &params, Rng rng);

    /** Execute one quantum; updates the PMU and returns the outputs. */
    CoreQuantumOutputs executeQuantum(const CoreQuantumInputs &inputs,
                                      Tick quantum);

    /** PMU of this CPU. */
    PerfCounters &counters() { return counters_; }

    /** PMU of this CPU. */
    const PerfCounters &counters() const { return counters_; }

    /** Clock domain (DVFS entry point). */
    ClockDomain &clock() { return clock_; }

    /** Clock domain. */
    const ClockDomain &clock() const { return clock_; }

    /** Diagnostic name. */
    const std::string &name() const { return name_; }

    /** Ground-truth package power of the last quantum (W). */
    Watts lastPower() const { return lastPower_; }

    /** Active (non-halted) fraction of the last quantum. */
    double lastActiveFraction() const { return lastActiveFraction_; }

    /** Fetched uops per cycle over the last quantum. */
    double lastUopsPerCycle() const { return lastUopsPerCycle_; }

  private:
    std::string name_;
    Params params_;
    ClockDomain clock_;
    Rng rng_;
    PerfCounters counters_;
    // Per-quantum scratch, hoisted so the hot loop reuses capacity
    // instead of reallocating every quantum.
    std::vector<const ThreadDemand *> demandScratch_;
    std::vector<double> effScratch_;
    Watts lastPower_ = 0.0;
    double lastActiveFraction_ = 0.0;
    double lastUopsPerCycle_ = 0.0;
    /** Last pow(active, 0.90) input and result; pow(1, y) is 1. */
    double powInput_ = 1.0;
    double powOutput_ = 1.0;
};

} // namespace tdp

#endif // TDP_CPU_CPU_CORE_HH
