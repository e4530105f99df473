/**
 * @file
 * Implementation of the rail sensing chain.
 */

#include "measure/rail.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tdp {

const char *
railName(Rail rail)
{
    switch (rail) {
      case Rail::Cpu:
        return "CPU";
      case Rail::Chipset:
        return "Chipset";
      case Rail::Memory:
        return "Memory";
      case Rail::Io:
        return "I/O";
      case Rail::Disk:
        return "Disk";
      default:
        return "unknown";
    }
}

RailChannel::RailChannel(std::string name,
                         std::function<Watts()> provider,
                         const Params &params, Rng rng)
    : name_(std::move(name)), provider_(std::move(provider)),
      params_(params), rng_(rng)
{
    if (!provider_)
        fatal("RailChannel %s: null power provider", name_.c_str());
}

Watts
RailChannel::sampleAverage(Seconds dt, int conversions)
{
    if (dt <= 0.0 || conversions <= 0)
        panic("RailChannel %s: bad sampling request (%g s, %d)",
              name_.c_str(), dt, conversions);

    const double tau = std::max(1e-3, params_.biasWanderTau);
    if (dt != cachedDt_ || conversions != cachedConversions_) {
        cachedDt_ = dt;
        cachedConversions_ = conversions;
        alpha_ = 1.0 - std::exp(-dt / std::max(1e-6, params_.filterTau));
        biasStepSigma_ =
            params_.biasWanderSigma * std::sqrt(2.0 * dt / tau);
        // Average of `conversions` iid ADC readings: one Gaussian draw
        // with the variance reduced accordingly (exact in
        // distribution).
        adcSigma_ = params_.adcNoiseSigma /
                    std::sqrt(static_cast<double>(conversions));
    }

    const Watts truth = provider_();
    if (!primed_) {
        filtered_ = truth;
        primed_ = true;
    } else {
        filtered_ += (truth - filtered_) * alpha_;
    }

    if (params_.biasWanderSigma > 0.0)
        bias_ += -bias_ * dt / tau + biasStepSigma_ * rng_.gaussian();

    double value = filtered_ + bias_ + rng_.gaussian(0.0, adcSigma_);

    if (params_.quantizationStep > 0.0) {
        value = std::round(value / params_.quantizationStep) *
                params_.quantizationStep;
    }
    return value;
}

} // namespace tdp
