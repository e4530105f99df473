/**
 * @file
 * The paper's subsystem power models (Equations 1-5).
 *
 * Every model maps the per-CPU event rates of one sample to the power
 * of one subsystem, summing a per-CPU linear or quadratic form across
 * the processors (the paper's NumCPUs sigma). Coefficients come from
 * regression against measured power (ModelTrainer) or can be set
 * explicitly.
 */

#ifndef TDP_CORE_MODEL_HH
#define TDP_CORE_MODEL_HH

#include <memory>
#include <string>
#include <vector>

#include "core/events.hh"
#include "measure/rail.hh"
#include "measure/trace.hh"

namespace tdp {

/** Abstract subsystem power model. */
class SubsystemModel
{
  public:
    virtual ~SubsystemModel() = default;

    /** Which rail this model estimates. */
    virtual Rail rail() const = 0;

    /** Short name, e.g. "cpu-fetch" or "memory-bus". */
    virtual const std::string &name() const = 0;

    /** Estimate the subsystem power for one sample (W). */
    virtual Watts estimate(const EventVector &events) const = 0;

    /**
     * Estimate every derived sample of a trace into @p out, resized
     * to rates.derived(): estimate() of each sample's event vector,
     * bit for bit, from the trace's rate table.
     */
    virtual void estimateColumn(const TraceRates &rates,
                                std::vector<double> &out) const = 0;

    /** Fit coefficients to a training trace's derived rates. */
    virtual void fit(const TraceRates &rates) = 0;

    /** Fit coefficients from an aligned training trace. */
    void train(const SampleTrace &trace) { fit(TraceRates(trace)); }

    /**
     * estimate() of every sample of a trace, by estimateColumn();
     * fatal() at a zero-cycle sample, as the event vector is.
     */
    std::vector<double> estimateTrace(const SampleTrace &trace) const;

    /** True once coefficients are available. */
    virtual bool trained() const = 0;

    /** Human-readable equation with fitted coefficients. */
    virtual std::string describe() const = 0;

    /** Flat coefficient list (intercept first), for serialisation. */
    std::vector<double>
    coefficients() const
    {
        std::vector<double> out;
        coefficientsInto(out);
        return out;
    }

    /**
     * coefficients() into @p out, reusing its storage: no allocation
     * once @p out has held as many.
     */
    virtual void coefficientsInto(std::vector<double> &out) const = 0;

    /** Restore from a flat coefficient list. */
    virtual void setCoefficients(const std::vector<double> &coeffs) = 0;
};

/**
 * Equation 1: per-CPU linear model
 *   sum_i  idle + activeCoef * percentActive_i + uopCoef * uops_i .
 * The idle (per-CPU) constant folds into the fitted intercept.
 */
class CpuPowerModel : public SubsystemModel
{
  public:
    CpuPowerModel();

    Rail rail() const override { return Rail::Cpu; }
    const std::string &name() const override { return name_; }
    Watts estimate(const EventVector &events) const override;
    void estimateColumn(const TraceRates &rates,
                        std::vector<double> &out) const override;
    void fit(const TraceRates &rates) override;
    bool trained() const override { return trained_; }
    std::string describe() const override;
    void coefficientsInto(std::vector<double> &out) const override;
    void setCoefficients(const std::vector<double> &coeffs) override;

    /**
     * Per-CPU power attribution: the per-package share of the model's
     * estimate, the capability the paper highlights for billing in
     * shared/virtualised servers (section 4.2.1).
     */
    Watts estimateCpu(const EventVector &events, int cpu) const;

  private:
    /** Equation 1 from the summed rates. */
    Watts
    power(double active, double uops) const
    {
        return intercept_ + activeCoef_ * active + uopCoef_ * uops;
    }

    std::string name_ = "cpu-fetch";
    double intercept_ = 0.0;
    double activeCoef_ = 0.0;
    double uopCoef_ = 0.0;
    bool trained_ = false;
};

/**
 * A per-CPU quadratic in one event rate:
 *   intercept + sum_i (a * x_i + b * x_i^2)
 * covering Equations 2 (L3 misses), 3 (bus transactions) and 5
 * (interrupts), which differ only in the chosen rate.
 */
class QuadraticEventModel : public SubsystemModel
{
  public:
    /**
     * @param name model name.
     * @param rail estimated rail.
     * @param field event-rate selector.
     */
    QuadraticEventModel(std::string name, Rail rail,
                        double CpuEventRates::*field);

    Rail rail() const override { return rail_; }
    const std::string &name() const override { return name_; }
    Watts estimate(const EventVector &events) const override;
    void estimateColumn(const TraceRates &rates,
                        std::vector<double> &out) const override;
    void fit(const TraceRates &rates) override;
    bool trained() const override { return trained_; }
    std::string describe() const override;
    void coefficientsInto(std::vector<double> &out) const override;
    void setCoefficients(const std::vector<double> &coeffs) override;

  private:
    /** The quadratic from the rate's sum and sum of squares. */
    Watts
    power(double total, double squares) const
    {
        return intercept_ + linear_ * total + quadratic_ * squares;
    }

    std::string name_;
    Rail rail_;
    double CpuEventRates::*field_;
    double intercept_ = 0.0;
    double linear_ = 0.0;
    double quadratic_ = 0.0;
    bool trained_ = false;
};

/** Equation 2: memory power from L3 load misses per cycle. */
std::unique_ptr<QuadraticEventModel> makeMemoryL3Model();

/** Equation 3: memory power from bus transactions per Mcycle. */
std::unique_ptr<QuadraticEventModel> makeMemoryBusModel();

/** Equation 5: I/O power from device interrupts per cycle. */
std::unique_ptr<QuadraticEventModel> makeIoInterruptModel();

/**
 * Equation 4: disk power from per-CPU quadratics in disk-controller
 * interrupts per cycle and DMA accesses per cycle.
 */
class DiskPowerModel : public SubsystemModel
{
  public:
    DiskPowerModel();

    Rail rail() const override { return Rail::Disk; }
    const std::string &name() const override { return name_; }
    Watts estimate(const EventVector &events) const override;
    void estimateColumn(const TraceRates &rates,
                        std::vector<double> &out) const override;
    void fit(const TraceRates &rates) override;
    bool trained() const override { return trained_; }
    std::string describe() const override;
    void coefficientsInto(std::vector<double> &out) const override;
    void setCoefficients(const std::vector<double> &coeffs) override;

  private:
    /** Equation 4 from the two rates' sums and sums of squares. */
    Watts
    power(double irq, double irq_squares, double dma,
          double dma_squares) const
    {
        return intercept_ + irqLinear_ * irq + irqQuadratic_ * irq_squares +
               dmaLinear_ * dma + dmaQuadratic_ * dma_squares;
    }

    std::string name_ = "disk-irq-dma";
    double intercept_ = 0.0;
    double irqLinear_ = 0.0;
    double irqQuadratic_ = 0.0;
    double dmaLinear_ = 0.0;
    double dmaQuadratic_ = 0.0;
    bool trained_ = false;
};

/**
 * A trained constant for any rail: the mean measured power of the
 * training trace (finite samples only). The bottom rung of every
 * graceful-degradation chain - it consumes no counter events, so it
 * stays usable when the PMU can schedule nothing at all.
 */
class ConstantPowerModel : public SubsystemModel
{
  public:
    /** @param name model name; "<rail>-const" when empty. */
    explicit ConstantPowerModel(Rail rail, std::string name = "");

    Rail rail() const override { return rail_; }
    const std::string &name() const override { return name_; }
    Watts estimate(const EventVector &events) const override;
    void estimateColumn(const TraceRates &rates,
                        std::vector<double> &out) const override;
    void fit(const TraceRates &rates) override;
    bool trained() const override { return trained_; }
    std::string describe() const override;
    void coefficientsInto(std::vector<double> &out) const override;
    void setCoefficients(const std::vector<double> &coeffs) override;

  private:
    Rail rail_;
    std::string name_;
    double constant_ = 0.0;
    bool trained_ = false;
};

/** The paper's chipset model: a fitted constant (section 4.2.5). */
class ChipsetPowerModel : public ConstantPowerModel
{
  public:
    ChipsetPowerModel() : ConstantPowerModel(Rail::Chipset, "chipset-const")
    {
    }

    std::string describe() const override;
};

} // namespace tdp

#endif // TDP_CORE_MODEL_HH
