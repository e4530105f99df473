/**
 * @file
 * Implementation of the event vector derivation.
 */

#include "core/events.hh"

#include "common/logging.hh"

namespace tdp {

EventVector
EventVector::fromSample(const AlignedSample &sample)
{
    EventVector ev;
    fromSampleInto(sample, ev);
    return ev;
}

namespace {

/** Fill @p out from @p n CPUs, counters(i) giving CPU i's deltas. */
template <typename Counters>
void
derive(size_t n, double interval, double disk_interrupts,
       double device_interrupts, Counters &&counters, EventVector &out)
{
    out.interval = interval;
    if (n == 0)
        fatal("EventVector: sample with no CPUs");
    out.cpu.resize(n);

    for (size_t i = 0; i < n; ++i) {
        const CounterSnapshot &snap = counters(i);
        CpuEventRates &rates = out.cpu[i];
        const double cycles = snap[PerfEvent::Cycles];
        if (cycles <= 0.0)
            fatal("EventVector: sample with zero cycles on cpu %zu", i);
        rates.cycles = cycles;
        rates.percentActive =
            1.0 - snap[PerfEvent::HaltedCycles] / cycles;
        rates.uopsPerCycle = snap[PerfEvent::FetchedUops] / cycles;
        rates.l3MissesPerCycle = snap[PerfEvent::L3LoadMisses] / cycles;
        rates.tlbMissesPerCycle = snap[PerfEvent::TlbMisses] / cycles;
        rates.busTxPerMcycle =
            snap[PerfEvent::BusTransactions] / cycles * 1e6;
        rates.dmaPerCycle = snap[PerfEvent::DmaOtherAccesses] / cycles;
        rates.uncacheablePerCycle =
            snap[PerfEvent::UncacheableAccesses] / cycles;
        rates.interruptsPerCycle =
            snap[PerfEvent::InterruptsServiced] / cycles;
        rates.prefetchPerMcycle =
            snap[PerfEvent::PrefetchTransactions] / cycles * 1e6;

        // The Pentium 4 exposes no per-source interrupt event; the
        // paper obtains source attribution from the OS and we follow:
        // the system-wide counts are spread over the CPUs that
        // serviced them (balanced routing).
        rates.diskInterruptsPerCycle =
            disk_interrupts / static_cast<double>(n) / cycles;
        rates.deviceInterruptsPerCycle =
            device_interrupts / static_cast<double>(n) / cycles;
    }
}

} // namespace

void
EventVector::fromSampleInto(const AlignedSample &sample,
                            EventVector &out)
{
    derive(
        sample.perCpu.size(), sample.interval, sample.osDiskInterrupts,
        sample.osDeviceInterrupts,
        [&sample](size_t i) -> const CounterSnapshot & {
            return sample.perCpu[i];
        },
        out);
}

void
EventVector::fromTraceInto(const SampleTrace &trace, size_t i,
                           EventVector &out)
{
    derive(
        trace.cpuCount(), trace.column(SampleTrace::intervalColumn)[i],
        trace.column(SampleTrace::irqDiskColumn)[i],
        trace.column(SampleTrace::irqDeviceColumn)[i],
        [&trace, i](size_t cpu) {
            CounterSnapshot snap;
            for (int e = 0; e < numPerfEvents; ++e)
                snap[static_cast<PerfEvent>(e)] =
                    trace.count(i, cpu, static_cast<PerfEvent>(e));
            return snap;
        },
        out);
}

double
EventVector::total(double CpuEventRates::*field) const
{
    double acc = 0.0;
    for (const CpuEventRates &rates : cpu)
        acc += rates.*field;
    return acc;
}

double
EventVector::totalSquared(double CpuEventRates::*field) const
{
    double acc = 0.0;
    for (const CpuEventRates &rates : cpu)
        acc += (rates.*field) * (rates.*field);
    return acc;
}

TraceRates::TraceRates(const SampleTrace &trace) : trace_(trace)
{
    rates_.reserve(trace.size() * trace.cpuCount());
    EventVector events;
    for (size_t i = 0; i < trace.size(); ++i) {
        for (size_t c = 0; c < trace.cpuCount(); ++c) {
            if (trace.count(i, c, PerfEvent::Cycles) <= 0.0) {
                error_ = formatString(
                    "EventVector: sample with zero cycles on cpu %zu", c);
                return;
            }
        }
        EventVector::fromTraceInto(trace, i, events);
        rates_.insert(rates_.end(), events.cpu.begin(), events.cpu.end());
    }
}

double
TraceRates::total(size_t i, double CpuEventRates::*field,
                  bool squared) const
{
    const size_t n = trace_.cpuCount();
    if ((i + 1) * n > rates_.size())
        fatal("%s", error_.c_str());
    double acc = 0.0;
    for (size_t c = i * n; c < (i + 1) * n; ++c)
        acc += squared ? (rates_[c].*field) * (rates_[c].*field)
                       : rates_[c].*field;
    return acc;
}

} // namespace tdp
