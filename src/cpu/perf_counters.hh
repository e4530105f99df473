/**
 * @file
 * Per-CPU performance monitoring unit.
 *
 * Exposes the nine event classes the paper selects in section 3.3:
 * cycles, halted cycles, fetched uops, L3 (load) misses, TLB misses,
 * DMA/other bus accesses, total memory bus transactions, uncacheable
 * accesses and serviced interrupts - plus the prefetch-transaction
 * count needed to reproduce Figure 4. Counts are doubles: within one
 * quantum they represent expected event counts.
 */

#ifndef TDP_CPU_PERF_COUNTERS_HH
#define TDP_CPU_PERF_COUNTERS_HH

#include <array>
#include <cstdint>
#include <string>

namespace tdp {

/** Performance events observable at a CPU. */
enum class PerfEvent : int
{
    Cycles = 0,          ///< core frequency x time
    HaltedCycles,        ///< cycles with the clock gated (HLT)
    FetchedUops,         ///< micro-operations fetched
    L3LoadMisses,        ///< demand load misses in the L3
    TlbMisses,           ///< ITLB + DTLB misses
    DmaOtherAccesses,    ///< snooped DMA/other-agent bus accesses
    BusTransactions,     ///< all memory bus transactions seen
    PrefetchTransactions,///< hardware-prefetch bus transactions
    UncacheableAccesses, ///< loads/stores to uncacheable space
    InterruptsServiced,  ///< interrupts taken by this CPU
    NumEvents,
};

/** Number of PerfEvent values. */
constexpr int numPerfEvents = static_cast<int>(PerfEvent::NumEvents);

/** Human-readable event name. */
const char *perfEventName(PerfEvent event);

/** Usable counter range of a width-limited PMU counter (2^bits). */
double counterSpan(int width_bits);

/**
 * Delta between two raw reads of a counter that wraps at
 * `width_bits` bits. Real PMU counters are 40-48 bits wide; a raw
 * read that comes back *below* the previous one means the counter
 * wrapped (at most once, provided the true delta fits in the width),
 * and the positive delta is recovered by adding back the span.
 * fatal() when width_bits is outside [1, 52] or a raw value is
 * negative or beyond the span.
 */
double wrappedCounterDelta(double previous_raw, double current_raw,
                           int width_bits);

/** Snapshot of all counters at a sampling instant. */
struct CounterSnapshot
{
    std::array<double, numPerfEvents> counts{};

    /** Access by event. */
    double
    operator[](PerfEvent event) const
    {
        return counts[static_cast<size_t>(event)];
    }

    /** Mutable access by event. */
    double &
    operator[](PerfEvent event)
    {
        return counts[static_cast<size_t>(event)];
    }

    /** Elementwise sum, for aggregating across CPUs. */
    CounterSnapshot &operator+=(const CounterSnapshot &other);
};

/**
 * The PMU of one CPU. The sampler periodically reads and clears all
 * counters, exactly like the perfctr-driver flow the paper uses.
 */
class PerfCounters
{
  public:
    /** Add to an event count; panic()s on a negative amount. */
    void
    increment(PerfEvent event, double amount)
    {
        if (amount < 0.0)
            negativeIncrement(event, amount);
        current_[static_cast<size_t>(event)] += amount;
        lifetime_[static_cast<size_t>(event)] += amount;
    }

    /** Current (since last clear) count of one event. */
    double count(PerfEvent event) const;

    /** Lifetime (never cleared) count of one event. */
    double lifetime(PerfEvent event) const;

    /** Read all counters and clear them (one sampling operation). */
    CounterSnapshot readAndClear();

    /** Read all counters without clearing. */
    CounterSnapshot peek() const;

  private:
    [[noreturn]] static void negativeIncrement(PerfEvent event,
                                               double amount);

    std::array<double, numPerfEvents> current_{};
    std::array<double, numPerfEvents> lifetime_{};
};

} // namespace tdp

#endif // TDP_CPU_PERF_COUNTERS_HH
