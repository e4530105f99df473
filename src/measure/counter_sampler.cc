/**
 * @file
 * Implementation of the counter sampler.
 */

#include "measure/counter_sampler.hh"

#include "common/logging.hh"

namespace tdp {

CounterSampler::CounterSampler(System &system, const std::string &name,
                               CpuComplex &cpus,
                               const InterruptController &irq_controller,
                               IrqVector disk_vector,
                               IrqVector timer_vector,
                               std::function<void()> on_pulse,
                               const Params &params,
                               FaultInjector *faults)
    : SimObject(system, name), params_(params), cpus_(cpus),
      irqController_(irq_controller), diskVector_(disk_vector),
      timerVector_(timer_vector), onPulse_(std::move(on_pulse)),
      faults_(faults), rng_(system.makeRng(name))
{
    if (params_.period <= 0.0)
        fatal("CounterSampler: period must be positive");
}

void
CounterSampler::startup()
{
    // Arming read at t=0: clears the counters and emits the first
    // sync pulse so the first real sample covers a clean window.
    system().events().schedule(name() + ".arm", system().now(),
                               [this] { takeSample(); });
}

void
CounterSampler::scheduleNext()
{
    const Seconds jitter =
        rng_.uniform(-params_.jitter, params_.jitter);
    const Tick delta = secondsToTicks(params_.period + jitter);
    system().events().schedule(name() + ".sample",
                               system().now() + delta,
                               [this] { takeSample(); });
}

void
CounterSampler::takeSample()
{
    const Seconds now = ticksToSeconds(system().now());

    CounterReading reading;
    reading.time = now;
    reading.interval = now - lastSampleTime_;
    reading.perCpu.reserve(static_cast<size_t>(cpus_.coreCount()));
    for (int i = 0; i < cpus_.coreCount(); ++i) {
        CounterSnapshot snap = cpus_.core(i).counters().readAndClear();
        if (faults_)
            faults_->corruptSnapshot(i, snap);
        reading.perCpu.push_back(snap);
    }

    const std::array<double, 3> irq_now = {
        irqController_.lifetimeTotal(),
        irqController_.lifetimeCount(diskVector_),
        irqController_.lifetimeDeviceTotal(),
    };
    reading.osInterruptsTotal = irq_now[0] - lastIrq_[0];
    reading.osDiskInterrupts = irq_now[1] - lastIrq_[1];
    reading.osDeviceInterrupts = irq_now[2] - lastIrq_[2];
    lastIrq_ = irq_now;
    lastSampleTime_ = now;

    if (onPulse_)
        onPulse_();

    // A reading can be lost after the pulse went out (logging
    // backpressure); the aligner detects the resulting orphan window.
    const bool dropped = faults_ && faults_->dropReading();

    // Discard the arming read: it covers no complete window.
    if (armed_ && !dropped)
        readings_.push_back(std::move(reading));
    armed_ = true;

    scheduleNext();
}

} // namespace tdp
