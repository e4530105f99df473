/**
 * @file
 * DVFS-aware CPU power model: an extension beyond the paper.
 *
 * The 2007 models assume a fixed nominal frequency (the paper's
 * machine ran none of its P-states during the experiments), so a
 * counter-trained model mispredicts under dynamic voltage/frequency
 * scaling: percentActive and uops/cycle are frequency-relative and do
 * not change when the clock slows, while real power scales roughly
 * with f * V^2. This wrapper adds the classic scaling correction on
 * top of any trained CpuPowerModel, given the current frequency ratio
 * - the knob a power-capping governor knows because it set it.
 */

#ifndef TDP_CORE_DVFS_HH
#define TDP_CORE_DVFS_HH

#include <memory>

#include "core/model.hh"

namespace tdp {

/** Frequency-scaling correction around a trained CPU model. */
class DvfsAwareCpuModel : public SubsystemModel
{
  public:
    /** Voltage/frequency relation parameters. */
    struct Params
    {
        /** Voltage at zero frequency fraction (V/Vnom intercept). */
        double voltageIntercept = 0.75;

        /** Voltage slope versus frequency fraction. */
        double voltageSlope = 0.25;

        /** Static (leakage-like) fraction of the model's estimate at
         *  zero activity; scales with V^2 only. Defaults to the
         *  paper's per-CPU idle power share. */
        double idleWattsPerCpu = 9.25;
    };

    /**
     * @param base trained (or trainable) fixed-frequency CPU model;
     *        ownership transfers.
     */
    explicit DvfsAwareCpuModel(std::unique_ptr<CpuPowerModel> base);

    DvfsAwareCpuModel(std::unique_ptr<CpuPowerModel> base,
                      Params params);

    /** Set the current frequency as a fraction of nominal (0.1-1]. */
    void setFrequencyScale(double scale);

    /** Current frequency fraction. */
    double frequencyScale() const { return scale_; }

    Rail rail() const override { return Rail::Cpu; }
    const std::string &name() const override { return name_; }
    Watts estimate(const EventVector &events) const override;
    void estimateColumn(const TraceRates &rates,
                        std::vector<double> &out) const override;
    void fit(const TraceRates &rates) override;
    bool trained() const override { return base_->trained(); }
    std::string describe() const override;
    std::vector<double> coefficients() const override;
    void setCoefficients(const std::vector<double> &coeffs) override;

    /** The wrapped fixed-frequency model. */
    const CpuPowerModel &base() const { return *base_; }

  private:
    /** The base model's @p nominal estimate on @p cpus CPUs, scaled. */
    Watts scaled(Watts nominal, size_t cpus) const;

    std::string name_ = "cpu-fetch-dvfs";
    std::unique_ptr<CpuPowerModel> base_;
    Params params_;
    double scale_ = 1.0;
};

} // namespace tdp

#endif // TDP_CORE_DVFS_HH
