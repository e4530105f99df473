/**
 * @file
 * Data-acquisition unit: samples the five rail channels at the
 * configured conversion rate (10 kHz in the paper) and records the
 * synchronisation pulses the target sends over its serial line.
 *
 * To bound memory on hour-long traces, the DAQ stores per-quantum
 * averaged blocks rather than raw conversions; the averaging of the
 * raw 10 kHz stream is performed inside RailChannel with exact noise
 * statistics. MeasurementRig aligns at every sync pulse, which drains
 * the blocks, so the queue holds about two sampling periods.
 */

#ifndef TDP_MEASURE_DAQ_HH
#define TDP_MEASURE_DAQ_HH

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "fault/fault_injector.hh"
#include "measure/rail.hh"
#include "sim/sim_object.hh"
#include "sim/system.hh"

namespace tdp {

/** One averaged DAQ block (one activity quantum of conversions). */
struct DaqBlock
{
    /** Tick at the start of the block. */
    Tick start;

    /** Block length in ticks. */
    Tick length;

    /** Per-rail averaged power (W). */
    std::array<float, numRails> watts;
};

/** The acquisition workstation. */
class DataAcquisition : public SimObject, public Ticked
{
  public:
    /** Configuration. */
    struct Params
    {
        /** ADC conversion rate per channel (Hz). */
        double conversionRateHz = 10000.0;

        /** Per-rail sensing parameters. */
        std::array<RailChannel::Params, numRails> rail;
    };

    /**
     * @param faults optional fault injector applied at this boundary:
     *        dropped blocks and per-rail glitch values. May be null.
     */
    DataAcquisition(System &system, const std::string &name,
                    const Params &params,
                    FaultInjector *faults = nullptr);

    /**
     * Attach the true-power provider of a rail. All five rails must
     * be attached before the first quantum runs.
     */
    void attachRail(Rail rail, std::function<Watts()> provider);

    /**
     * Record a synchronisation pulse (the single byte the target
     * writes to its serial port at each counter sampling).
     */
    void syncPulse();

    /** Recorded blocks awaiting alignment (drained by the aligner). */
    std::deque<DaqBlock> &blocks() { return blocks_; }

    /** Recorded pulse ticks awaiting alignment. */
    std::deque<Tick> &pulses() { return pulses_; }

    /** Total pulses recorded. */
    uint64_t pulseCount() const { return pulseCount_; }

    void tickUpdate(Tick now, Tick quantum) override;

  private:
    Params params_;
    FaultInjector *faults_;
    std::array<std::unique_ptr<RailChannel>, numRails> rails_;
    std::deque<DaqBlock> blocks_;
    std::deque<Tick> pulses_;
    uint64_t pulseCount_ = 0;
};

} // namespace tdp

#endif // TDP_MEASURE_DAQ_HH
