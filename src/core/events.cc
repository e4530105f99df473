/**
 * @file
 * Implementation of the event vector derivation.
 */

#include "core/events.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hh"

namespace tdp {

namespace {

/** How a rate field divides its count by the cycles elapsed. */
enum class RateForm { Cycles, Active, PerCycle, PerMcycle, PerCpuPerCycle };

/** One rate field: name, member, form and the trace column it reads. */
struct RateSpec
{
    const char *name;
    double CpuEventRates::*field;
    RateForm form;
    size_t column;
};

constexpr size_t
counterColumn(PerfEvent event)
{
    return SampleTrace::firstCounterColumn + static_cast<size_t>(event);
}

/** Every field of CpuEventRates, in declaration order. */
constexpr std::array<RateSpec, numRateFields> rateSpecs{{
    {"cycles", &CpuEventRates::cycles, RateForm::Cycles,
     counterColumn(PerfEvent::Cycles)},
    {"percentActive", &CpuEventRates::percentActive, RateForm::Active,
     counterColumn(PerfEvent::HaltedCycles)},
    {"uopsPerCycle", &CpuEventRates::uopsPerCycle, RateForm::PerCycle,
     counterColumn(PerfEvent::FetchedUops)},
    {"l3MissesPerCycle", &CpuEventRates::l3MissesPerCycle,
     RateForm::PerCycle, counterColumn(PerfEvent::L3LoadMisses)},
    {"tlbMissesPerCycle", &CpuEventRates::tlbMissesPerCycle,
     RateForm::PerCycle, counterColumn(PerfEvent::TlbMisses)},
    {"busTxPerMcycle", &CpuEventRates::busTxPerMcycle,
     RateForm::PerMcycle, counterColumn(PerfEvent::BusTransactions)},
    {"dmaPerCycle", &CpuEventRates::dmaPerCycle, RateForm::PerCycle,
     counterColumn(PerfEvent::DmaOtherAccesses)},
    {"uncacheablePerCycle", &CpuEventRates::uncacheablePerCycle,
     RateForm::PerCycle, counterColumn(PerfEvent::UncacheableAccesses)},
    {"interruptsPerCycle", &CpuEventRates::interruptsPerCycle,
     RateForm::PerCycle, counterColumn(PerfEvent::InterruptsServiced)},
    {"prefetchPerMcycle", &CpuEventRates::prefetchPerMcycle,
     RateForm::PerMcycle, counterColumn(PerfEvent::PrefetchTransactions)},
    // The Pentium 4 exposes no per-source interrupt event; the paper
    // obtains source attribution from the OS and we follow: the
    // system-wide counts are spread over the CPUs that serviced them
    // (balanced routing).
    {"diskInterruptsPerCycle", &CpuEventRates::diskInterruptsPerCycle,
     RateForm::PerCpuPerCycle, SampleTrace::irqDiskColumn},
    {"deviceInterruptsPerCycle",
     &CpuEventRates::deviceInterruptsPerCycle, RateForm::PerCpuPerCycle,
     SampleTrace::irqDeviceColumn},
}};

/** True when the field reads one system-wide count per sample. */
constexpr bool
perSample(const RateSpec &spec)
{
    return spec.column < SampleTrace::firstCounterColumn;
}

/**
 * The paper's rates (section 3.3): count @p x over @p cycles on one
 * of @p cpus CPUs. Dividing by the cycles count corrects for the
 * sampler's slightly wobbling period.
 */
inline double
rateOf(RateForm form, double x, double cycles, double cpus)
{
    switch (form) {
      case RateForm::Cycles: return cycles;
      case RateForm::Active: return 1.0 - x / cycles;
      case RateForm::PerCycle: return x / cycles;
      case RateForm::PerMcycle: return x / cycles * 1e6;
      case RateForm::PerCpuPerCycle: return x / cpus / cycles;
    }
    return x;
}

/**
 * True when every |x[k]| of @p count values is at most @p bound (so
 * none is NaN or infinite): their sum, which rounding never takes
 * below any of its non-negative terms, stays within it. Four partial
 * sums keep the adds independent.
 */
bool
bounded(const double *x, size_t count, double bound)
{
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    size_t k = 0;
    for (; k + 4 <= count; k += 4)
        for (size_t j = 0; j < 4; ++j)
            acc[j] += std::fabs(x[k + j]);
    for (; k < count; ++k)
        acc[0] += std::fabs(x[k]);
    return (acc[0] + acc[1]) + (acc[2] + acc[3]) <= bound;
}

/** The least of @p count values, ignoring NaN (+inf when none). */
double
smallest(const double *x, size_t count)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    double least[4] = {inf, inf, inf, inf};
    size_t k = 0;
    for (; k + 4 <= count; k += 4)
        for (size_t j = 0; j < 4; ++j)
            least[j] = std::min(least[j], x[k + j]);
    for (; k < count; ++k)
        least[0] = std::min(least[0], x[k]);
    return std::min(std::min(least[0], least[1]),
                    std::min(least[2], least[3]));
}

/** Position of @p field in rateSpecs. */
size_t
fieldIndex(double CpuEventRates::*field)
{
    for (size_t f = 0; f < rateSpecs.size(); ++f)
        if (rateSpecs[f].field == field)
            return f;
    panic("TraceRates: unknown rate field");
}

/**
 * Every field of one CPU's rates, unrolled over rateSpecs at compile
 * time so each field's form and input fold to straight-line code.
 */
template <size_t... F>
void
deriveCpu(const CounterSnapshot &snap, double disk_interrupts,
          double device_interrupts, double cycles, double cpus,
          CpuEventRates &out, std::index_sequence<F...>)
{
    const auto input = [&](const RateSpec &spec) {
        return spec.column == SampleTrace::irqDiskColumn ? disk_interrupts
               : spec.column == SampleTrace::irqDeviceColumn
                   ? device_interrupts
                   : snap.counts[spec.column -
                                 SampleTrace::firstCounterColumn];
    };
    ((out.*rateSpecs[F].field = rateOf(rateSpecs[F].form,
                                       input(rateSpecs[F]), cycles, cpus)),
     ...);
}

} // namespace

EventVector
EventVector::fromSample(const AlignedSample &sample)
{
    EventVector ev;
    fromSampleInto(sample, ev);
    return ev;
}

void
EventVector::fromSampleInto(const AlignedSample &sample,
                            EventVector &out)
{
    const size_t n = sample.perCpu.size();
    // Locals, so the stores into out.cpu need not reload them.
    const double disk_interrupts = sample.osDiskInterrupts;
    const double device_interrupts = sample.osDeviceInterrupts;
    out.interval = sample.interval;
    if (n == 0)
        fatal("EventVector: sample with no CPUs");
    out.cpu.resize(n);

    for (size_t i = 0; i < n; ++i) {
        const CounterSnapshot &snap = sample.perCpu[i];
        const double cycles = snap[PerfEvent::Cycles];
        if (cycles <= 0.0)
            fatal("EventVector: sample with zero cycles on cpu %zu", i);
        deriveCpu(snap, disk_interrupts, device_interrupts, cycles,
                  static_cast<double>(n), out.cpu[i],
                  std::make_index_sequence<numRateFields>());
    }
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

uint32_t
EventVector::nonFiniteMask() const
{
    uint32_t mask = 0;
    for (size_t f = 0; f < rateSpecs.size(); ++f)
        for (const CpuEventRates &rates : cpu)
            if (!std::isfinite(rates.*rateSpecs[f].field))
                mask |= 1u << f;
    return mask;
}

std::string
rateFieldNames(uint32_t mask)
{
    std::string names;
    for (size_t f = 0; f < rateSpecs.size(); ++f) {
        if (!(mask & (1u << f)))
            continue;
        if (!names.empty())
            names += ", ";
        names += rateSpecs[f].name;
    }
    return names;
}

TraceRates::TraceRates(const SampleTrace &trace) : trace_(trace)
{
    const size_t n = trace.cpuCount();
    const std::vector<double> &cycles =
        trace.column(counterColumn(PerfEvent::Cycles));
    // NaN is not <= 0.0, so smallest() may ignore it here.
    leastCycles_ = smallest(cycles.data(), cycles.size());
    if (leastCycles_ > 0.0) {
        derived_ = trace.size();
        return;
    }
    for (derived_ = 0; derived_ < trace.size(); ++derived_) {
        for (size_t c = 0; c < n; ++c) {
            if (cycles[derived_ * n + c] <= 0.0) {
                error_ = formatString(
                    "EventVector: sample with zero cycles on cpu %zu", c);
                return;
            }
        }
    }
}

void
TraceRates::requireDerived() const
{
    if (derived_ < size())
        fatal("%s", error_.c_str());
}

const TraceRates::Field &
TraceRates::field(size_t f) const
{
    Field &out = fields_[f];
    if (out.ready)
        return out;
    const RateSpec &spec = rateSpecs[f];
    const size_t n = trace_.cpuCount();
    const double cpus = static_cast<double>(n);
    const double *cycles =
        trace_.column(counterColumn(PerfEvent::Cycles)).data();
    const double *x = trace_.column(spec.column).data();
    out.totals.resize(derived_);
    out.squares.resize(derived_);
    for (size_t i = 0; i < derived_; ++i) {
        double total = 0.0;
        double squares = 0.0;
        for (size_t c = 0; c < n; ++c) {
            const size_t k = i * n + c;
            const double rate = rateOf(
                spec.form, x[perSample(spec) ? i : k], cycles[k], cpus);
            total += rate;
            squares += rate * rate;
        }
        out.totals[i] = total;
        out.squares[i] = squares;
    }
    out.ready = true;
    return out;
}

const std::vector<double> &
TraceRates::totals(double CpuEventRates::*field, bool squared) const
{
    const Field &rates = this->field(fieldIndex(field));
    return squared ? rates.squares : rates.totals;
}

uint32_t
TraceRates::sampleMask(size_t i) const
{
    const size_t n = trace_.cpuCount();
    const double *cycles =
        trace_.column(counterColumn(PerfEvent::Cycles)).data();
    if (allFinite_ < 0) {
        // With every count within 1e300 and every CPU past one cycle,
        // no form can overflow (x / cycles * 1e6 <= 1e306) or divide
        // to a non-finite value, so every mask is zero. (A NaN cycle
        // count fails the bound on the cycles column.)
        bool all = leastCycles_ >= 1.0;
        for (const RateSpec &spec : rateSpecs)
            all = all && bounded(trace_.column(spec.column).data(),
                                 perSample(spec) ? derived_ : derived_ * n,
                                 1e300);
        allFinite_ = all ? 1 : 0;
    }
    if (allFinite_ == 1)
        return 0;
    const double cpus = static_cast<double>(n);
    uint32_t mask = 0;
    for (size_t f = 0; f < rateSpecs.size(); ++f) {
        const RateSpec &spec = rateSpecs[f];
        const double *x = trace_.column(spec.column).data();
        for (size_t c = 0; c < n; ++c) {
            const size_t k = i * n + c;
            if (!std::isfinite(rateOf(spec.form, x[perSample(spec) ? i : k],
                                      cycles[k], cpus)))
                mask |= 1u << f;
        }
    }
    return mask;
}

} // namespace tdp
