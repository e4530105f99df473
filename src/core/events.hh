/**
 * @file
 * Event vectors: the per-sample derived metrics the paper's models
 * consume (section 3.3). Raw counter deltas become per-cycle rates -
 * dividing by the cycles count corrects for the sampler's slightly
 * wobbling period, exactly as the paper prescribes.
 */

#ifndef TDP_CORE_EVENTS_HH
#define TDP_CORE_EVENTS_HH

#include <array>
#include <cstdint>
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

    /** Sum of one rate across CPUs (member pointer selector). */
    double total(double CpuEventRates::*field) const;

    /** Sum of the squares of one rate across CPUs. */
    double totalSquared(double CpuEventRates::*field) const;

    /** Bit f set when rate field f is non-finite on any CPU. */
    uint32_t nonFiniteMask() const;
};

/** Rate fields of CpuEventRates, in declaration order. */
constexpr size_t numRateFields = 12;

/** Comma-joined names of the rate fields whose bits are set in @p mask. */
std::string rateFieldNames(uint32_t mask);

/**
 * The one batch derivation of a trace's rates, for every fit and
 * every estimate over a trace. The first time a reader asks for a
 * field, its per-CPU rates are derived with EventVector's formulas
 * and summed per sample in CPU order from 0.0, as EventVector::total()
 * and totalSquared() sum them, so a value read here is bit-identical
 * to the event vector of the same sample. A zero-cycle sample ends
 * the table: the columns cover derived() samples, and reading past
 * them is the fatal() EventVector would raise, so models that read no
 * rates still train. Lazily filled, so one thread at a time.
 */
class TraceRates
{
  public:
    /** Rates of @p trace, which must outlive the table. */
    explicit TraceRates(const SampleTrace &trace);

    const SampleTrace &trace() const { return trace_; }
    size_t size() const { return trace_.size(); }

    /** Samples before the first zero-cycle sample (size() if none). */
    size_t derived() const { return derived_; }

    /** fatal() with the event vector's message unless derived() == size(). */
    void requireDerived() const;

    /**
     * One rate summed across CPUs per derived sample, or with
     * @p squared the sum of its squares (EventVector::totalSquared()).
     */
    const std::vector<double> &totals(double CpuEventRates::*field,
                                      bool squared = false) const;

    /**
     * EventVector::nonFiniteMask() of derived sample @p i. Zero with
     * no division when the whole trace's counters bound every rate.
     */
    uint32_t
    nonFiniteMask(size_t i) const
    {
        return allFinite_ == 1 ? 0 : sampleMask(i);
    }

  private:
    /** nonFiniteMask() past the all-finite shortcut. */
    uint32_t sampleMask(size_t i) const;

    /** One field's per-sample totals and totals of squares. */
    struct Field
    {
        std::vector<double> totals;
        std::vector<double> squares;
        bool ready = false;
    };

    /** Field @p f, derived on first use. */
    const Field &field(size_t f) const;

    const SampleTrace &trace_;
    size_t derived_ = 0;
    /** The least cycle count of the trace, ignoring NaN. */
    double leastCycles_ = 0.0;
    /** Why derivation stopped short of the trace, if it did. */
    std::string error_;
    mutable std::array<Field, numRateFields> fields_;
    /** 1 when every rate is finite, 0 when some may not be, -1 unknown. */
    mutable int allFinite_ = -1;
};

} // namespace tdp

#endif // TDP_CORE_EVENTS_HH
