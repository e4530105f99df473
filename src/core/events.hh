/**
 * @file
 * Event vectors: the per-sample derived metrics the paper's models
 * consume (section 3.3). Raw counter deltas become per-cycle rates -
 * dividing by the cycles count corrects for the sampler's slightly
 * wobbling period, exactly as the paper prescribes.
 */

#ifndef TDP_CORE_EVENTS_HH
#define TDP_CORE_EVENTS_HH

#include <string>
#include <vector>

#include "measure/trace.hh"

namespace tdp {

/** Per-CPU event rates over one sampling interval. */
struct CpuEventRates
{
    /** Cycles elapsed (the normalisation base). */
    double cycles = 0.0;

    /** Fraction of cycles not halted (1 - halted/cycles). */
    double percentActive = 0.0;

    /** Fetched uops per cycle. */
    double uopsPerCycle = 0.0;

    /** L3 load misses per cycle. */
    double l3MissesPerCycle = 0.0;

    /** TLB misses per cycle. */
    double tlbMissesPerCycle = 0.0;

    /** Memory bus transactions per million cycles. */
    double busTxPerMcycle = 0.0;

    /** Snooped DMA/other accesses per cycle. */
    double dmaPerCycle = 0.0;

    /** Uncacheable accesses per cycle. */
    double uncacheablePerCycle = 0.0;

    /** Interrupts serviced per cycle (PMU view). */
    double interruptsPerCycle = 0.0;

    /** Prefetch bus transactions per million cycles. */
    double prefetchPerMcycle = 0.0;

    /** Disk-controller interrupts per cycle (OS-attributed share). */
    double diskInterruptsPerCycle = 0.0;

    /** All device interrupts per cycle (OS-attributed share). */
    double deviceInterruptsPerCycle = 0.0;
};

/** The full event vector of one sample. */
struct EventVector
{
    /** Per-CPU rates. */
    std::vector<CpuEventRates> cpu;

    /** Sample wall-clock interval (s). */
    double interval = 1.0;

    /** Build from an aligned sample. */
    static EventVector fromSample(const AlignedSample &sample);

    /**
     * Fill @p out from @p sample, reusing out's storage: once
     * out.cpu has capacity for the sample's CPU count this performs
     * no heap allocation (the streaming drain path's steady-state
     * contract). Results are bit-identical to fromSample().
     */
    static void fromSampleInto(const AlignedSample &sample,
                               EventVector &out);

    /** fromSampleInto() for sample @p i of @p trace, read in place. */
    static void fromTraceInto(const SampleTrace &trace, size_t i,
                              EventVector &out);

    /** Sum of one rate across CPUs (member pointer selector). */
    double total(double CpuEventRates::*field) const;

    /** Sum of the squares of one rate across CPUs. */
    double totalSquared(double CpuEventRates::*field) const;
};

/**
 * Every sample's per-CPU rates, derived once for all fits on a trace
 * and summed in CPU order as EventVector::total() sums them. A
 * zero-cycle sample ends the table; reading it is the fatal()
 * EventVector would raise, so models that read no rates still train.
 */
class TraceRates
{
  public:
    /** Derive from @p trace, which must outlive the table. */
    explicit TraceRates(const SampleTrace &trace);

    const SampleTrace &trace() const { return trace_; }
    size_t size() const { return trace_.size(); }

    /**
     * One rate of sample @p i summed across CPUs, or with @p squared
     * the sum of its squares (EventVector::totalSquared()).
     */
    double total(size_t i, double CpuEventRates::*field,
                 bool squared = false) const;

  private:
    const SampleTrace &trace_;
    /** cpuCount() rates per derived sample, sample major. */
    std::vector<CpuEventRates> rates_;
    /** Why derivation stopped short of the trace, if it did. */
    std::string error_;
};

} // namespace tdp

#endif // TDP_CORE_EVENTS_HH
