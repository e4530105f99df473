/**
 * @file
 * Power rails and their sensing chain.
 *
 * The paper measures each subsystem through a series sense resistor
 * whose voltage drop is captured by data-acquisition hardware in a
 * separate workstation (section 3.1.2). A RailChannel models that
 * chain: the true component power, low-passed by the voltage
 * regulator's output capacitance, offset by a slowly wandering sensor
 * bias (thermal drift, multi-domain derivation error on the chipset
 * rail) plus white ADC noise.
 */

#ifndef TDP_MEASURE_RAIL_HH
#define TDP_MEASURE_RAIL_HH

#include <functional>
#include <string>

#include "common/random.hh"
#include "common/units.hh"

namespace tdp {

/** The five instrumented subsystems, in the paper's order. */
enum class Rail : int
{
    Cpu = 0,
    Chipset,
    Memory,
    Io,
    Disk,
    NumRails,
};

/** Number of instrumented rails. */
constexpr int numRails = static_cast<int>(Rail::NumRails);

/** Display name of a rail. */
const char *railName(Rail rail);

/** One sensed rail: true power source plus the sensing chain model. */
class RailChannel
{
  public:
    /** Sensing-chain configuration. */
    struct Params
    {
        /** RC time constant of the regulator/sense filter (s). */
        double filterTau = 4e-3;

        /** White noise sigma of one raw ADC conversion (W). */
        double adcNoiseSigma = 1.2;

        /** ADC quantisation step after the front-end (W). */
        double quantizationStep = 0.02;

        /** Slow sensor-bias wander sigma (W). */
        double biasWanderSigma = 0.0;

        /** Bias wander time constant (s). */
        double biasWanderTau = 30.0;
    };

    /**
     * @param name diagnostic name.
     * @param provider callback returning the component's true power.
     * @param params sensing-chain configuration.
     * @param rng private noise stream.
     */
    RailChannel(std::string name, std::function<Watts()> provider,
                const Params &params, Rng rng);

    /**
     * Advance the chain by dt and return the average of
     * `conversions` ADC samples taken across the interval (the DAQ's
     * 10 kHz stream averaged per quantum).
     */
    Watts sampleAverage(Seconds dt, int conversions);

    /** Most recent filtered (pre-noise) value. */
    Watts filteredPower() const { return filtered_; }

    /** Diagnostic name. */
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::function<Watts()> provider_;
    Params params_;
    Rng rng_;
    Watts filtered_ = 0.0;
    double bias_ = 0.0;
    bool primed_ = false;

    // Per-call invariants of sampleAverage, recomputed only when dt or
    // the conversion count changes (every quantum has the same length,
    // so in practice once per run).
    Seconds cachedDt_ = 0.0;
    int cachedConversions_ = 0;
    double alpha_ = 0.0;
    double biasStepSigma_ = 0.0;
    double adcSigma_ = 0.0;
};

} // namespace tdp

#endif // TDP_MEASURE_RAIL_HH
