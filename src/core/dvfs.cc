/**
 * @file
 * Implementation of the DVFS-aware CPU model.
 */

#include "core/dvfs.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tdp {

DvfsAwareCpuModel::DvfsAwareCpuModel(std::unique_ptr<CpuPowerModel> base)
    : DvfsAwareCpuModel(std::move(base), Params())
{
}

DvfsAwareCpuModel::DvfsAwareCpuModel(
    std::unique_ptr<CpuPowerModel> base, Params params)
    : base_(std::move(base)), params_(params)
{
    if (!base_)
        fatal("DvfsAwareCpuModel: null base model");
}

void
DvfsAwareCpuModel::setFrequencyScale(double scale)
{
    scale_ = std::clamp(scale, 0.1, 1.0);
}

Watts
DvfsAwareCpuModel::scaled(Watts nominal, size_t cpus) const
{
    const double v = params_.voltageIntercept +
                     params_.voltageSlope * scale_;
    const double v2 = v * v;
    const double idle = params_.idleWattsPerCpu * static_cast<double>(cpus);
    // Static share scales with V^2; the dynamic remainder with f*V^2.
    return idle * v2 + std::max(0.0, nominal - idle) * scale_ * v2;
}

Watts
DvfsAwareCpuModel::estimate(const EventVector &events) const
{
    return scaled(base_->estimate(events), events.cpu.size());
}

void
DvfsAwareCpuModel::estimateColumn(const TraceRates &rates,
                                  std::vector<double> &out) const
{
    base_->estimateColumn(rates, out);
    for (double &w : out)
        w = scaled(w, rates.trace().cpuCount());
}

void
DvfsAwareCpuModel::fit(const TraceRates &rates)
{
    // Training data is assumed captured at nominal frequency, per the
    // paper's methodology.
    base_->fit(rates);
}

std::string
DvfsAwareCpuModel::describe() const
{
    return formatString("%s  [DVFS: x(s*v^2), v = %.2f + %.2f*s, "
                        "s = %.2f]",
                        base_->describe().c_str(),
                        params_.voltageIntercept, params_.voltageSlope,
                        scale_);
}

std::vector<double>
DvfsAwareCpuModel::coefficients() const
{
    return base_->coefficients();
}

void
DvfsAwareCpuModel::setCoefficients(const std::vector<double> &coeffs)
{
    base_->setCoefficients(coeffs);
}

} // namespace tdp
