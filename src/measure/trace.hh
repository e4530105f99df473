/**
 * @file
 * Sample records: the aligned (performance counters, measured power)
 * pairs the paper's models are trained and validated on.
 */

#ifndef TDP_MEASURE_TRACE_HH
#define TDP_MEASURE_TRACE_HH

#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "cpu/perf_counters.hh"
#include "measure/rail.hh"

namespace tdp {

/**
 * One aligned sample: the per-CPU counter deltas over one sampling
 * interval plus the five rail powers averaged across the same window.
 */
struct AlignedSample
{
    /** Window end time on the target's clock (s). */
    Seconds time = 0.0;

    /** Actual window length (jittered around the nominal 1 s). */
    Seconds interval = 1.0;

    /** Per-CPU counter deltas (read-and-clear values). */
    std::vector<CounterSnapshot> perCpu;

    /** Interrupt deltas from /proc/interrupts: total. */
    double osInterruptsTotal = 0.0;

    /** Interrupt delta of the disk HBA vector. */
    double osDiskInterrupts = 0.0;

    /** Interrupt delta of all device (non-timer) vectors. */
    double osDeviceInterrupts = 0.0;

    /** Measured subsystem power over the window (W). */
    std::array<double, numRails> measuredWatts{};

    /** Sum of one counter across CPUs. */
    double totalCount(PerfEvent event) const;

    /**
     * All ten counters summed across CPUs in one pass;
     * bit-identical to calling totalCount() per event (same per-CPU
     * addition order).
     */
    CounterSnapshot totalCounts() const;

    /** Measured power for one rail (W). */
    double
    measured(Rail rail) const
    {
        return measuredWatts[static_cast<size_t>(rail)];
    }
};

/** An aligned trace with export and column-extraction helpers. */
class SampleTrace
{
  public:
    /** Append one sample. */
    void
    add(AlignedSample sample)
    {
        samples_.push_back(std::move(sample));
        columnsValid_ = false;
    }

    /** Reserve storage for @p count samples. */
    void reserve(size_t count) { samples_.reserve(count); }

    /** The samples, in time order. */
    const std::vector<AlignedSample> &samples() const { return samples_; }

    /** Number of samples. */
    size_t size() const { return samples_.size(); }

    /** True when no samples were collected. */
    bool empty() const { return samples_.empty(); }

    /** Access one sample. */
    const AlignedSample &operator[](size_t i) const { return samples_[i]; }

    /**
     * Measured power column for one rail: a contiguous double array
     * the metrics stream over directly. Served from a lazily built
     * structure-of-arrays mirror of the samples, so repeated column
     * access (the Eq. 6 sweep touches every rail of every trace)
     * costs one pass over the samples total instead of one per call.
     * The reference is invalidated by the next add().
     */
    const std::vector<double> &measuredColumn(Rail rail) const;

    /** Summed counter column for one event (same contract). */
    const std::vector<double> &counterColumn(PerfEvent event) const;

    /** Keep only samples with time in [from, to). */
    SampleTrace slice(Seconds from, Seconds to) const;

    /** Write a CSV with one row per sample (summed counters). */
    void writeCsv(std::ostream &os) const;

    /**
     * Read a trace back from the CSV written by writeCsv. Because the
     * export sums counters across CPUs, the reconstruction spreads
     * each count evenly over `cpu_count` CPUs - exact for the summed
     * per-CPU model forms the library uses. fatal() on malformed
     * input.
     */
    static SampleTrace readCsv(std::istream &is, int cpu_count = 4);

  private:
    /** SoA mirror of the samples, one contiguous array per column. */
    struct Columns
    {
        std::array<std::vector<double>, numRails> measured;
        std::array<std::vector<double>, numPerfEvents> counters;
    };

    /**
     * The column mirror, (re)built on first access after a
     * mutation. Mutable cache only: it never influences observable
     * state. Concurrent first access from several threads is not
     * synchronised - share a trace across threads only after priming
     * it, or give each thread its own copy.
     */
    const Columns &columns() const;

    std::vector<AlignedSample> samples_;
    mutable Columns columns_;
    mutable bool columnsValid_ = false;
};

} // namespace tdp

#endif // TDP_MEASURE_TRACE_HH
