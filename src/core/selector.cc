/**
 * @file
 * Implementation of the event selector.
 */

#include "core/selector.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "stats/metrics.hh"

namespace tdp {

namespace {

struct MetricDef
{
    const char *name;
    double CpuEventRates::*field;
};

const MetricDef metricDefs[] = {
    {"percent_active", &CpuEventRates::percentActive},
    {"uops_per_cycle", &CpuEventRates::uopsPerCycle},
    {"l3_misses_per_cycle", &CpuEventRates::l3MissesPerCycle},
    {"tlb_misses_per_cycle", &CpuEventRates::tlbMissesPerCycle},
    {"bus_tx_per_mcycle", &CpuEventRates::busTxPerMcycle},
    {"dma_per_cycle", &CpuEventRates::dmaPerCycle},
    {"uncacheable_per_cycle", &CpuEventRates::uncacheablePerCycle},
    {"interrupts_per_cycle", &CpuEventRates::interruptsPerCycle},
    {"prefetch_per_mcycle", &CpuEventRates::prefetchPerMcycle},
    {"disk_interrupts_per_cycle",
     &CpuEventRates::diskInterruptsPerCycle},
    {"device_interrupts_per_cycle",
     &CpuEventRates::deviceInterruptsPerCycle},
};

/** One rate's across-CPU total per sample of a whole trace. */
const std::vector<double> &
totalColumn(const TraceRates &rates, double CpuEventRates::*field)
{
    rates.requireDerived();
    return rates.totals(field);
}

} // namespace

std::vector<std::string>
EventSelector::metricNames()
{
    std::vector<std::string> names;
    for (const MetricDef &def : metricDefs)
        names.push_back(def.name);
    return names;
}

std::vector<double>
EventSelector::metricColumn(const SampleTrace &trace,
                            const std::string &metric)
{
    for (const MetricDef &def : metricDefs) {
        if (metric == def.name) {
            const TraceRates rates(trace);
            return totalColumn(rates, def.field);
        }
    }
    fatal("EventSelector: unknown metric '%s'", metric.c_str());
}

std::vector<EventCorrelation>
EventSelector::rank(const SampleTrace &trace, Rail rail)
{
    if (trace.size() < 3)
        fatal("EventSelector: trace too short (%zu samples)",
              trace.size());
    const std::vector<double> &power = trace.measuredColumn(rail);
    const TraceRates rates(trace);

    std::vector<EventCorrelation> out;
    for (const MetricDef &def : metricDefs)
        out.push_back(EventCorrelation{
            def.name, pearson(totalColumn(rates, def.field), power)});
    std::stable_sort(out.begin(), out.end(),
                     [](const EventCorrelation &a,
                        const EventCorrelation &b) {
                         return std::fabs(a.correlation) >
                                std::fabs(b.correlation);
                     });
    return out;
}

} // namespace tdp
