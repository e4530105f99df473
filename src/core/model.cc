/**
 * @file
 * Implementation of the subsystem power models.
 */

#include "core/model.hh"

#include <cmath>

#include "common/logging.hh"
#include "stats/regression.hh"

namespace tdp {

namespace {

/**
 * Streams a training trace's regressor rows to the fitters from its
 * rate table, with no per-fit copies. The layout is [x0, x0^2, x1,
 * x1^2, ...] when with_squares is set, the models' coefficient order.
 */
class TraceDesignSource : public DesignSource
{
  public:
    TraceDesignSource(const TraceRates &rates, Rail rail,
                      const std::vector<double CpuEventRates::*> &fields,
                      bool with_squares)
        : rates_(rates), measured_(rates.trace().measuredColumn(rail))
    {
        for (double CpuEventRates::*field : fields) {
            columns_.push_back(&rates.totals(field));
            if (with_squares)
                columns_.push_back(&rates.totals(field, true));
        }
    }

    size_t sampleCount() const override { return rates_.size(); }

    size_t regressorCount() const override { return columns_.size(); }

    void
    row(size_t i, double *out) const override
    {
        if (i >= rates_.derived())
            rates_.requireDerived();
        for (const std::vector<double> *column : columns_)
            *out++ = (*column)[i];
    }

    double response(size_t i) const override { return measured_[i]; }

  private:
    const TraceRates &rates_;
    const std::vector<double> &measured_;
    /** The rate table's totals (and squares), in regressor order. */
    std::vector<const std::vector<double> *> columns_;
};

/**
 * Shared training helper: fit the trace's streamed design by OLS.
 *
 * Follows the paper's model-format discipline (section 3.3.1): the
 * quadratic form is used when the data supports it; when the squared
 * columns are (numerically) collinear with the linear ones - e.g. a
 * bursty two-valued interrupt rate - the fit falls back to the linear
 * form and reports zero quadratic coefficients. The returned
 * coefficient vector is always laid out [x0, x0^2, x1, x1^2, ...]
 * when with_squares is set.
 */
FitResult
fitColumns(const TraceRates &rates, Rail rail,
           const std::vector<double CpuEventRates::*> &fields,
           bool with_squares)
{
    if (rates.size() == 0)
        fatal("model training requires a non-empty trace");

    if (with_squares) {
        try {
            return fitOls(
                TraceDesignSource(rates, rail, fields, true));
        } catch (const FatalError &) {
            warn("quadratic fit for %s rank-deficient; "
                 "falling back to linear form",
                 railName(rail));
        }
    }

    FitResult fit =
        fitOls(TraceDesignSource(rates, rail, fields, false));
    if (with_squares) {
        // Re-expand to the quadratic layout with zero square terms.
        std::vector<double> expanded(fields.size() * 2, 0.0);
        for (size_t f = 0; f < fields.size(); ++f)
            expanded[f * 2] = fit.coefficients[f];
        fit.coefficients = std::move(expanded);
    }
    return fit;
}

} // namespace

std::vector<double>
SubsystemModel::estimateTrace(const SampleTrace &trace) const
{
    const TraceRates rates(trace);
    std::vector<double> out;
    estimateColumn(rates, out);
    rates.requireDerived();
    return out;
}

// ---------------------------------------------------------------- CPU

CpuPowerModel::CpuPowerModel() = default;

Watts
CpuPowerModel::estimate(const EventVector &events) const
{
    if (!trained_)
        panic("CpuPowerModel::estimate before training");
    return power(events.total(&CpuEventRates::percentActive),
                 events.total(&CpuEventRates::uopsPerCycle));
}

void
CpuPowerModel::estimateColumn(const TraceRates &rates,
                              std::vector<double> &out) const
{
    if (!trained_)
        panic("CpuPowerModel::estimate before training");
    const std::vector<double> &active =
        rates.totals(&CpuEventRates::percentActive);
    const std::vector<double> &uops =
        rates.totals(&CpuEventRates::uopsPerCycle);
    out.resize(active.size());
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = power(active[i], uops[i]);
}

Watts
CpuPowerModel::estimateCpu(const EventVector &events, int cpu) const
{
    if (!trained_)
        panic("CpuPowerModel::estimateCpu before training");
    if (cpu < 0 || cpu >= static_cast<int>(events.cpu.size()))
        panic("CpuPowerModel: cpu %d out of %zu", cpu, events.cpu.size());
    const CpuEventRates &rates = events.cpu[static_cast<size_t>(cpu)];
    return intercept_ / static_cast<double>(events.cpu.size()) +
           activeCoef_ * rates.percentActive +
           uopCoef_ * rates.uopsPerCycle;
}

void
CpuPowerModel::fit(const TraceRates &rates)
{
    const FitResult fit = fitColumns(
        rates, Rail::Cpu,
        {&CpuEventRates::percentActive, &CpuEventRates::uopsPerCycle},
        false);
    intercept_ = fit.intercept;
    activeCoef_ = fit.coefficients[0];
    uopCoef_ = fit.coefficients[1];
    trained_ = true;
}

std::string
CpuPowerModel::describe() const
{
    return formatString(
        "P_cpu = %.3f + sum_i [%.3f * active_i + %.3f * uops_i]",
        intercept_, activeCoef_, uopCoef_);
}

std::vector<double>
CpuPowerModel::coefficients() const
{
    return {intercept_, activeCoef_, uopCoef_};
}

void
CpuPowerModel::setCoefficients(const std::vector<double> &coeffs)
{
    if (coeffs.size() != 3)
        fatal("CpuPowerModel: expected 3 coefficients, got %zu",
              coeffs.size());
    intercept_ = coeffs[0];
    activeCoef_ = coeffs[1];
    uopCoef_ = coeffs[2];
    trained_ = true;
}

// ---------------------------------------------- quadratic single-event

QuadraticEventModel::QuadraticEventModel(std::string name, Rail rail,
                                         double CpuEventRates::*field)
    : name_(std::move(name)), rail_(rail), field_(field)
{
}

Watts
QuadraticEventModel::estimate(const EventVector &events) const
{
    if (!trained_)
        panic("%s::estimate before training", name_.c_str());
    return power(events.total(field_), events.totalSquared(field_));
}

void
QuadraticEventModel::estimateColumn(const TraceRates &rates,
                                    std::vector<double> &out) const
{
    if (!trained_)
        panic("%s::estimate before training", name_.c_str());
    const std::vector<double> &totals = rates.totals(field_);
    const std::vector<double> &squares = rates.totals(field_, true);
    out.resize(totals.size());
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = power(totals[i], squares[i]);
}

void
QuadraticEventModel::fit(const TraceRates &rates)
{
    const FitResult fit = fitColumns(rates, rail_, {field_}, true);
    intercept_ = fit.intercept;
    linear_ = fit.coefficients[0];
    quadratic_ = fit.coefficients[1];
    trained_ = true;
}

std::string
QuadraticEventModel::describe() const
{
    return formatString(
        "P_%s = %.4f + sum_i [%.6g * x_i + %.6g * x_i^2]  (%s)",
        railName(rail_), intercept_, linear_, quadratic_,
        name_.c_str());
}

std::vector<double>
QuadraticEventModel::coefficients() const
{
    return {intercept_, linear_, quadratic_};
}

void
QuadraticEventModel::setCoefficients(const std::vector<double> &coeffs)
{
    if (coeffs.size() != 3)
        fatal("%s: expected 3 coefficients, got %zu", name_.c_str(),
              coeffs.size());
    intercept_ = coeffs[0];
    linear_ = coeffs[1];
    quadratic_ = coeffs[2];
    trained_ = true;
}

std::unique_ptr<QuadraticEventModel>
makeMemoryL3Model()
{
    return std::make_unique<QuadraticEventModel>(
        "memory-l3miss", Rail::Memory,
        &CpuEventRates::l3MissesPerCycle);
}

std::unique_ptr<QuadraticEventModel>
makeMemoryBusModel()
{
    return std::make_unique<QuadraticEventModel>(
        "memory-bus", Rail::Memory, &CpuEventRates::busTxPerMcycle);
}

std::unique_ptr<QuadraticEventModel>
makeIoInterruptModel()
{
    return std::make_unique<QuadraticEventModel>(
        "io-interrupt", Rail::Io,
        &CpuEventRates::deviceInterruptsPerCycle);
}

// --------------------------------------------------------------- disk

DiskPowerModel::DiskPowerModel() = default;

Watts
DiskPowerModel::estimate(const EventVector &events) const
{
    if (!trained_)
        panic("DiskPowerModel::estimate before training");
    const auto irq = &CpuEventRates::diskInterruptsPerCycle;
    const auto dma = &CpuEventRates::dmaPerCycle;
    return power(events.total(irq), events.totalSquared(irq),
                 events.total(dma), events.totalSquared(dma));
}

void
DiskPowerModel::estimateColumn(const TraceRates &rates,
                               std::vector<double> &out) const
{
    if (!trained_)
        panic("DiskPowerModel::estimate before training");
    const auto irq = &CpuEventRates::diskInterruptsPerCycle;
    const auto dma = &CpuEventRates::dmaPerCycle;
    const std::vector<double> &irqs = rates.totals(irq);
    const std::vector<double> &irq_squares = rates.totals(irq, true);
    const std::vector<double> &dmas = rates.totals(dma);
    const std::vector<double> &dma_squares = rates.totals(dma, true);
    out.resize(irqs.size());
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = power(irqs[i], irq_squares[i], dmas[i], dma_squares[i]);
}

void
DiskPowerModel::fit(const TraceRates &rates)
{
    const FitResult fit =
        fitColumns(rates, Rail::Disk,
                   {&CpuEventRates::diskInterruptsPerCycle,
                    &CpuEventRates::dmaPerCycle},
                   true);
    intercept_ = fit.intercept;
    irqLinear_ = fit.coefficients[0];
    irqQuadratic_ = fit.coefficients[1];
    dmaLinear_ = fit.coefficients[2];
    dmaQuadratic_ = fit.coefficients[3];
    trained_ = true;
}

std::string
DiskPowerModel::describe() const
{
    return formatString(
        "P_disk = %.4f + sum_i [%.6g * irq_i + %.6g * irq_i^2 + "
        "%.6g * dma_i + %.6g * dma_i^2]",
        intercept_, irqLinear_, irqQuadratic_, dmaLinear_,
        dmaQuadratic_);
}

std::vector<double>
DiskPowerModel::coefficients() const
{
    return {intercept_, irqLinear_, irqQuadratic_, dmaLinear_,
            dmaQuadratic_};
}

void
DiskPowerModel::setCoefficients(const std::vector<double> &coeffs)
{
    if (coeffs.size() != 5)
        fatal("DiskPowerModel: expected 5 coefficients, got %zu",
              coeffs.size());
    intercept_ = coeffs[0];
    irqLinear_ = coeffs[1];
    irqQuadratic_ = coeffs[2];
    dmaLinear_ = coeffs[3];
    dmaQuadratic_ = coeffs[4];
    trained_ = true;
}

// ----------------------------------------------------------- constant

ConstantPowerModel::ConstantPowerModel(Rail rail, std::string name)
    : rail_(rail),
      name_(name.empty() ? std::string(railName(rail)) + "-const"
                         : std::move(name))
{
}

Watts
ConstantPowerModel::estimate(const EventVector & /* events */) const
{
    if (!trained_)
        panic("%s::estimate before training", name_.c_str());
    return constant_;
}

void
ConstantPowerModel::estimateColumn(const TraceRates &rates,
                                   std::vector<double> &out) const
{
    if (!trained_)
        panic("%s::estimate before training", name_.c_str());
    out.assign(rates.derived(), constant_);
}

void
ConstantPowerModel::fit(const TraceRates &rates)
{
    if (rates.size() == 0)
        fatal("%s: empty training trace", name_.c_str());
    double acc = 0.0;
    uint64_t used = 0;
    for (const double w : rates.trace().measuredColumn(rail_)) {
        if (!std::isfinite(w))
            continue;
        acc += w;
        ++used;
    }
    if (used == 0)
        fatal("%s: no finite measured samples to train on",
              name_.c_str());
    constant_ = acc / static_cast<double>(used);
    trained_ = true;
}

std::string
ConstantPowerModel::describe() const
{
    return formatString("P_%s = %.3f (constant)", railName(rail_),
                        constant_);
}

std::vector<double>
ConstantPowerModel::coefficients() const
{
    return {constant_};
}

void
ConstantPowerModel::setCoefficients(const std::vector<double> &coeffs)
{
    if (coeffs.size() != 1)
        fatal("%s: expected 1 coefficient, got %zu", name_.c_str(),
              coeffs.size());
    constant_ = coeffs[0];
    trained_ = true;
}

// ------------------------------------------------------------ chipset

std::string
ChipsetPowerModel::describe() const
{
    return formatString("P_chipset = %.3f (constant)", coefficients()[0]);
}

} // namespace tdp
