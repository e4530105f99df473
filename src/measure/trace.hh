/**
 * @file
 * Sample records: the aligned (performance counters, measured power)
 * pairs the paper's models are trained and validated on.
 */

#ifndef TDP_MEASURE_TRACE_HH
#define TDP_MEASURE_TRACE_HH

#include <array>
#include <cstdint>
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

    /** Measured power for one rail (W). */
    double
    measured(Rail rail) const
    {
        return measuredWatts[static_cast<size_t>(rail)];
    }
};

/**
 * An aligned trace stored as columns. The CPU count is fixed per
 * trace, so each value lives in one of numColumns contiguous arrays:
 * time, interval and the three interrupt deltas, then the five rails'
 * watts (one value per sample each), then one block per counter with
 * cpuCount() values per sample (sample major, CPU minor). The TDPT v3
 * payload is these columns in this order. The trace holds no derived
 * state, so a const trace can be read from any number of threads.
 */
class SampleTrace
{
  public:
    /** Storage indices of the columns. */
    static constexpr size_t timeColumn = 0;
    static constexpr size_t intervalColumn = 1;
    static constexpr size_t irqTotalColumn = 2;
    static constexpr size_t irqDiskColumn = 3;
    static constexpr size_t irqDeviceColumn = 4;
    static constexpr size_t firstRailColumn = 5;
    static constexpr size_t firstCounterColumn = firstRailColumn + numRails;
    static constexpr size_t numColumns = firstCounterColumn + numPerfEvents;

    /**
     * Append one sample. The first sample fixes the CPU count;
     * fatal() on a sample with no CPUs or with another CPU count.
     */
    void add(const AlignedSample &sample);

    /** Number of samples. */
    size_t size() const { return columns_[timeColumn].size(); }

    /** True when no samples were collected. */
    bool empty() const { return size() == 0; }

    /** CPUs per sample (0 until the first sample fixes it). */
    size_t cpuCount() const { return cpuCount_; }

    /** Column @p index in storage order. */
    const std::vector<double> &
    column(size_t index) const
    {
        return columns_[index];
    }

    /** Measured power column for one rail: the storage itself. */
    const std::vector<double> &
    measuredColumn(Rail rail) const
    {
        return columns_[firstRailColumn + static_cast<size_t>(rail)];
    }

    /** Window end time of sample @p i. */
    Seconds time(size_t i) const { return columns_[timeColumn][i]; }

    /** Counter @p event of CPU @p cpu in sample @p i. */
    double
    count(size_t i, size_t cpu, PerfEvent event) const
    {
        return columns_[firstCounterColumn + static_cast<size_t>(event)]
                       [i * cpuCount_ + cpu];
    }

    /** Sample @p i as a new AlignedSample, for cold code. */
    AlignedSample row(size_t i) const;

    /** Every sample as an AlignedSample, for cold code. */
    std::vector<AlignedSample> rows() const;

    /**
     * One counter summed across CPUs per sample, computed on demand
     * in CPU order (bit-identical to AlignedSample::totalCount).
     */
    std::vector<double> counterColumn(PerfEvent event) const;

    /** The given samples, in the given order, as a new trace. */
    SampleTrace subset(const std::vector<size_t> &rows) const;

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
    /** The binary decoder reads the payload straight into columns_. */
    friend bool tryReadTraceBinary(std::istream &is, SampleTrace &out,
                                   uint64_t *fingerprint,
                                   std::string *error);

    size_t cpuCount_ = 0;
    std::array<std::vector<double>, numColumns> columns_;
};

} // namespace tdp

#endif // TDP_MEASURE_TRACE_HH
