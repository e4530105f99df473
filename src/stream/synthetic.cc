/**
 * @file
 * Implementation of the synthetic streaming client fleet.
 */

#include "stream/synthetic.hh"

#include <cmath>
#include <vector>

namespace tdp {
namespace stream {
namespace synthetic {

namespace {

constexpr size_t
idx(Rail r)
{
    return static_cast<size_t>(r);
}

} // namespace

AlignedSample
syntheticSample(double u, int i, int cpus)
{
    AlignedSample s;
    s.time = static_cast<double>(i);
    s.interval = 1.0;
    const double cycles = 2.8e9;
    const double active = 0.02 + 0.98 * u;
    const double uops = 2.0 * u * (1.0 + 0.1 * ((i % 3) - 1));
    const double bus = 0.03 * u;
    const double l3 = 0.004 * u * (1.0 + 0.05 * (i % 2));
    const double dma = 1e-4 * ((i % 4) / 3.0);
    const double disk_irq = 800.0 * u;
    const double dev_irq = 1000.0 * u * (1.0 + 0.1 * (i % 2));

    s.perCpu.resize(static_cast<size_t>(cpus));
    for (CounterSnapshot &snap : s.perCpu) {
        snap[PerfEvent::Cycles] = cycles;
        snap[PerfEvent::HaltedCycles] = cycles * (1.0 - active);
        snap[PerfEvent::FetchedUops] = cycles * uops;
        snap[PerfEvent::L3LoadMisses] = cycles * l3;
        snap[PerfEvent::TlbMisses] = cycles * 1e-5;
        snap[PerfEvent::DmaOtherAccesses] = cycles * dma;
        snap[PerfEvent::BusTransactions] = cycles * bus;
        snap[PerfEvent::PrefetchTransactions] = cycles * 0.002;
        snap[PerfEvent::UncacheableAccesses] = cycles * 1e-6;
        snap[PerfEvent::InterruptsServiced] = 1000.0 / cpus;
    }
    s.osInterruptsTotal = 1000.0;
    s.osDiskInterrupts = disk_irq;
    s.osDeviceInterrupts = dev_irq;

    const double bus_mcycle = bus * 1e6;
    s.measuredWatts[idx(Rail::Cpu)] =
        cpus * (9.25 + 26.45 * active + 4.31 * uops);
    s.measuredWatts[idx(Rail::Memory)] =
        28.0 +
        cpus * (3e-4 * bus_mcycle + 4e-9 * bus_mcycle * bus_mcycle);
    s.measuredWatts[idx(Rail::Disk)] =
        21.6 + 3e-3 * disk_irq + 3e4 * dma;
    s.measuredWatts[idx(Rail::Io)] = 32.6 + 1e-3 * dev_irq;
    s.measuredWatts[idx(Rail::Chipset)] = 19.9;
    return s;
}

SampleTrace
trainingTrace(int samples)
{
    SampleTrace trace;
    for (int i = 0; i < samples; ++i) {
        const double u =
            samples > 1 ? static_cast<double>(i) / (samples - 1)
                        : 0.0;
        trace.add(syntheticSample(u, i));
    }
    return trace;
}

namespace {

/** Call fn on every model of @p est: each rail's primary, then its rungs. */
template <typename Fn>
void
forEachModel(SystemPowerEstimator &est, Fn &&fn)
{
    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        fn(est.model(rail));
        for (const auto &rung : est.fallbacks(rail))
            fn(*rung);
    }
}

} // namespace

SystemPowerEstimator
trainedEstimator()
{
    // Training is deterministic, so it runs once per process (and its
    // rank-deficient quadratic fits log once); every call installs the
    // fitted coefficients, bit for bit, into a fresh model set. An
    // untrained model keeps an empty list and stays untrained.
    static const std::vector<std::vector<double>> fitted = [] {
        SystemPowerEstimator est =
            SystemPowerEstimator::makeDegradableModelSet();
        est.trainAll(trainingTrace());
        std::vector<std::vector<double>> coeffs;
        forEachModel(est, [&](const SubsystemModel &m) {
            coeffs.push_back(m.trained() ? m.coefficients()
                                         : std::vector<double>{});
        });
        return coeffs;
    }();
    SystemPowerEstimator est =
        SystemPowerEstimator::makeDegradableModelSet();
    size_t k = 0;
    forEachModel(est, [&](SubsystemModel &m) {
        if (!fitted[k].empty())
            m.setCoefficients(fitted[k]);
        ++k;
    });
    return est;
}

Fleet::Fleet(int clients, int width_bits, uint64_t base_client)
    : widthBits_(width_bits), baseClient_(base_client),
      clients_(static_cast<size_t>(clients))
{
}

StreamSample
Fleet::next(int c, double u, double cpu_shift_watts)
{
    Client &client = clients_[static_cast<size_t>(c)];
    ++client.seq;
    client.time += 1.0;
    const AlignedSample aligned =
        syntheticSample(u, static_cast<int>(client.seq));
    const double span = counterSpan(widthBits_);

    StreamSample s;
    s.client = clientId(c);
    s.seq = client.seq;
    s.time = client.time;
    s.interval = aligned.interval;
    s.cpus = static_cast<int>(aligned.perCpu.size());
    for (int e = 0; e < numPerfEvents; ++e) {
        double delta = 0.0;
        for (const CounterSnapshot &snap : aligned.perCpu)
            delta += snap.counts[static_cast<size_t>(e)];
        client.cumulative[static_cast<size_t>(e)] += delta;
        s.raw.counts[static_cast<size_t>(e)] =
            std::fmod(client.cumulative[static_cast<size_t>(e)],
                      span);
    }
    s.osDiskInterrupts = aligned.osDiskInterrupts;
    s.osDeviceInterrupts = aligned.osDeviceInterrupts;
    s.measuredWatts = aligned.measuredWatts;
    s.measuredWatts[idx(Rail::Cpu)] += cpu_shift_watts;
    return s;
}

} // namespace synthetic
} // namespace stream
} // namespace tdp
