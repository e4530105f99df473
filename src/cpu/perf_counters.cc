/**
 * @file
 * Implementation of the performance counters.
 */

#include "cpu/perf_counters.hh"

#include "common/logging.hh"

namespace tdp {

const char *
perfEventName(PerfEvent event)
{
    switch (event) {
      case PerfEvent::Cycles:
        return "cycles";
      case PerfEvent::HaltedCycles:
        return "halted_cycles";
      case PerfEvent::FetchedUops:
        return "fetched_uops";
      case PerfEvent::L3LoadMisses:
        return "l3_load_misses";
      case PerfEvent::TlbMisses:
        return "tlb_misses";
      case PerfEvent::DmaOtherAccesses:
        return "dma_other_accesses";
      case PerfEvent::BusTransactions:
        return "bus_transactions";
      case PerfEvent::PrefetchTransactions:
        return "prefetch_transactions";
      case PerfEvent::UncacheableAccesses:
        return "uncacheable_accesses";
      case PerfEvent::InterruptsServiced:
        return "interrupts_serviced";
      default:
        return "unknown";
    }
}

double
counterSpan(int width_bits)
{
    if (width_bits < 1 || width_bits > 52)
        fatal("counterSpan: width must be in [1, 52] bits, got %d",
              width_bits);
    return static_cast<double>(uint64_t{1} << width_bits);
}

double
wrappedCounterDelta(double previous_raw, double current_raw,
                    int width_bits)
{
    const double span = counterSpan(width_bits);
    if (previous_raw < 0.0 || previous_raw >= span ||
        current_raw < 0.0 || current_raw >= span) {
        fatal("wrappedCounterDelta: raw values (%g, %g) outside "
              "[0, 2^%d)", previous_raw, current_raw, width_bits);
    }
    const double delta = current_raw - previous_raw;
    return delta < 0.0 ? delta + span : delta;
}

CounterSnapshot &
CounterSnapshot::operator+=(const CounterSnapshot &other)
{
    for (size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    return *this;
}

void
PerfCounters::negativeIncrement(PerfEvent event, double amount)
{
    panic("PerfCounters: negative increment %g on %s", amount,
          perfEventName(event));
}

double
PerfCounters::count(PerfEvent event) const
{
    return current_[static_cast<size_t>(event)];
}

double
PerfCounters::lifetime(PerfEvent event) const
{
    return lifetime_[static_cast<size_t>(event)];
}

CounterSnapshot
PerfCounters::readAndClear()
{
    CounterSnapshot snap;
    snap.counts = current_;
    current_.fill(0.0);
    return snap;
}

CounterSnapshot
PerfCounters::peek() const
{
    CounterSnapshot snap;
    snap.counts = current_;
    return snap;
}

} // namespace tdp
