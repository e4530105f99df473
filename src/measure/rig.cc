/**
 * @file
 * Implementation of the measurement rig.
 */

#include "measure/rig.hh"

#include "obs/stats_registry.hh"

namespace tdp {

DataAcquisition::Params
MeasurementRig::defaultDaqParams()
{
    DataAcquisition::Params p;
    p.conversionRateHz = 10000.0;

    auto &cpu = p.rail[static_cast<size_t>(Rail::Cpu)];
    cpu.adcNoiseSigma = 1.4;
    cpu.biasWanderSigma = 0.45;
    cpu.filterTau = 4e-3;

    auto &chipset = p.rail[static_cast<size_t>(Rail::Chipset)];
    chipset.adcNoiseSigma = 0.6;
    chipset.biasWanderSigma = 0.08;
    chipset.filterTau = 6e-3;

    auto &memory = p.rail[static_cast<size_t>(Rail::Memory)];
    memory.adcNoiseSigma = 0.5;
    memory.biasWanderSigma = 0.03;
    memory.filterTau = 5e-3;

    auto &io = p.rail[static_cast<size_t>(Rail::Io)];
    io.adcNoiseSigma = 0.7;
    io.biasWanderSigma = 0.11;
    io.filterTau = 6e-3;

    auto &disk = p.rail[static_cast<size_t>(Rail::Disk)];
    disk.adcNoiseSigma = 0.35;
    disk.biasWanderSigma = 0.024;
    disk.filterTau = 8e-3;

    return p;
}

MeasurementRig::MeasurementRig(System &system, const std::string &name,
                               CpuComplex &cpus,
                               const InterruptController &irq_controller,
                               IrqVector disk_vector,
                               IrqVector timer_vector,
                               const Params &params)
    : SimObject(system, name),
      faults_(params.faults.enabled()
                  ? std::make_unique<FaultInjector>(
                        system.masterSeed(), name + ".faults",
                        params.faults)
                  : nullptr),
      daq_(system, name + ".daq", params.daq, faults_.get()),
      sampler_(system, name + ".sampler", cpus, irq_controller,
               disk_vector, timer_vector, [this] { emitPulse(); },
               params.sampler, faults_.get()),
      aligner_(daq_, TraceAligner::Params{params.sampler.period, 0.25,
                                          0.5})
{
}

void
MeasurementRig::emitPulse()
{
    if (!faults_) {
        daq_.syncPulse();
        return;
    }
    switch (faults_->pulseFault()) {
      case FaultInjector::PulseFault::Miss:
        return;
      case FaultInjector::PulseFault::Duplicate:
        deliverPulse();
        deliverPulse();
        return;
      case FaultInjector::PulseFault::None:
        deliverPulse();
        return;
    }
}

void
MeasurementRig::deliverPulse()
{
    const Seconds latency = faults_ ? faults_->pulseLatency() : 0.0;
    if (latency <= 0.0) {
        daq_.syncPulse();
        return;
    }
    system().events().schedule(
        name() + ".pulse", system().now() + secondsToTicks(latency),
        [this] { daq_.syncPulse(); });
}

void
MeasurementRig::attachRail(Rail rail, std::function<Watts()> provider)
{
    daq_.attachRail(rail, std::move(provider));
}

const SampleTrace &
MeasurementRig::collect()
{
    aligner_.drainInto(sampler_.readings(), trace_);
    return trace_;
}

void
MeasurementRig::recordStats(obs::StatsRegistry &stats) const
{
    stats.addNamed("measure.aligner.aligned",
                   aligner_.alignedCount());
    stats.addNamed("measure.aligner.orphan_windows",
                   aligner_.orphanWindows());
    stats.addNamed("measure.aligner.orphan_readings",
                   aligner_.orphanReadings());
    stats.addNamed("measure.aligner.duplicate_pulses",
                   aligner_.duplicatePulses());
    stats.addNamed("measure.aligner.resynced_windows",
                   aligner_.resyncedWindows());
    stats.addNamed("measure.aligner.empty_windows",
                   aligner_.emptyWindows());
    stats.addNamed("measure.aligner.glitch_values_discarded",
                   aligner_.glitchValuesDiscarded());
    stats.addNamed("measure.daq.pulses", daq_.pulseCount());
}

} // namespace tdp
