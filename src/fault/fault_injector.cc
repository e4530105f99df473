/**
 * @file
 * Implementation of the fault injector.
 */

#include "fault/fault_injector.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace tdp {

uint64_t
FaultInjector::Stats::total() const
{
    return readingsDropped + pulsesMissed + pulsesDuplicated +
           pulsesDelayed + blocksDropped + blocksGlitched +
           counterWraps + eventsMasked;
}

FaultInjector::FaultInjector(uint64_t master_seed,
                             const std::string &name,
                             const FaultPlan &plan)
    : plan_(plan), samplerRng_(master_seed, name + ".sampler"),
      pulseRng_(master_seed, name + ".pulse"),
      daqRng_(master_seed, name + ".daq")
{
    plan_.validate();
    for (PerfEvent event : plan_.unavailableEvents)
        unavailable_[static_cast<size_t>(event)] = true;
}

void
FaultInjector::corruptSnapshot(int cpu, CounterSnapshot &snapshot)
{
    if (cpu < 0)
        panic("FaultInjector: negative cpu index %d", cpu);
    if (plan_.counterWidthBits > 0) {
        if (static_cast<size_t>(cpu) >= rawCounters_.size())
            rawCounters_.resize(static_cast<size_t>(cpu) + 1);
        CounterSnapshot &raw = rawCounters_[static_cast<size_t>(cpu)];
        const double span = counterSpan(plan_.counterWidthBits);
        for (size_t i = 0; i < snapshot.counts.size(); ++i) {
            const double previous = raw.counts[i];
            // The physical counter accumulates modulo 2^width; the
            // sampler only ever sees these wrapped raw values.
            raw.counts[i] =
                std::fmod(previous + snapshot.counts[i], span);
            if (raw.counts[i] < previous)
                ++stats_.counterWraps;
            // Driver-side recovery: reconstruct the delta exactly as
            // a hardened perfctr read would.
            snapshot.counts[i] = wrappedCounterDelta(
                previous, raw.counts[i], plan_.counterWidthBits);
        }
    }
    for (int e = 0; e < numPerfEvents; ++e) {
        if (unavailable_[static_cast<size_t>(e)]) {
            snapshot.counts[static_cast<size_t>(e)] =
                std::numeric_limits<double>::quiet_NaN();
            ++stats_.eventsMasked;
        }
    }
}

bool
FaultInjector::dropReading()
{
    if (plan_.dropReadingProb <= 0.0)
        return false;
    if (!samplerRng_.bernoulli(plan_.dropReadingProb))
        return false;
    ++stats_.readingsDropped;
    return true;
}

FaultInjector::PulseFault
FaultInjector::pulseFault()
{
    if (plan_.missPulseProb > 0.0 &&
        pulseRng_.bernoulli(plan_.missPulseProb)) {
        ++stats_.pulsesMissed;
        return PulseFault::Miss;
    }
    if (plan_.duplicatePulseProb > 0.0 &&
        pulseRng_.bernoulli(plan_.duplicatePulseProb)) {
        ++stats_.pulsesDuplicated;
        return PulseFault::Duplicate;
    }
    return PulseFault::None;
}

Seconds
FaultInjector::pulseLatency()
{
    if (plan_.pulseLatencyMax <= 0.0)
        return 0.0;
    const Seconds latency =
        pulseRng_.uniform(0.0, plan_.pulseLatencyMax);
    if (latency > 0.0)
        ++stats_.pulsesDelayed;
    return latency;
}

bool
FaultInjector::dropBlock()
{
    if (plan_.dropBlockProb <= 0.0)
        return false;
    if (!daqRng_.bernoulli(plan_.dropBlockProb))
        return false;
    ++stats_.blocksDropped;
    return true;
}

FaultInjector::Glitch
FaultInjector::blockGlitch(int num_rails)
{
    Glitch glitch;
    if (plan_.glitchBlockProb <= 0.0 || num_rails <= 0)
        return glitch;
    if (!daqRng_.bernoulli(plan_.glitchBlockProb))
        return glitch;
    glitch.rail = static_cast<int>(
        daqRng_.uniformInt(0, num_rails - 1));
    switch (daqRng_.uniformInt(0, 3)) {
      case 0:
        glitch.value = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:
        glitch.value = std::numeric_limits<double>::infinity();
        break;
      case 2:
        glitch.value = -std::numeric_limits<double>::infinity();
        break;
      default:
        glitch.value = daqRng_.bernoulli(0.5) ? plan_.glitchSpikeWatts
                                              : -plan_.glitchSpikeWatts;
        break;
    }
    ++stats_.blocksGlitched;
    return glitch;
}

} // namespace tdp
