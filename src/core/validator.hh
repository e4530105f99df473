/**
 * @file
 * Model validation: the paper's Equation 6 average error applied per
 * workload and per subsystem (Tables 3 and 4).
 */

#ifndef TDP_CORE_VALIDATOR_HH
#define TDP_CORE_VALIDATOR_HH

#include <array>
#include <map>
#include <string>
#include <vector>

#include "core/estimator.hh"
#include "measure/trace.hh"

namespace tdp {

/** Per-rail average errors for one workload (fractions, not %). */
struct ValidationResult
{
    /** Workload name. */
    std::string workload;

    /** Equation 6 average error per rail. */
    std::array<double, numRails> averageError{};

    /**
     * Sample pairs per rail excluded from the error for a non-finite
     * modeled or measured value (glitched window / unestimable
     * sample).
     */
    std::array<uint64_t, numRails> discardedPairs{};

    /** Error of one rail. */
    double
    error(Rail rail) const
    {
        return averageError[static_cast<size_t>(rail)];
    }
};

/** Validates an estimator across workload traces. */
class Validator
{
  public:
    /**
     * @param estimator trained estimator under test.
     * @param disk_dc_offset idle disk power subtracted before
     *        computing the disk error (the paper subtracts the 21.6 W
     *        DC term; pass 0 to disable).
     */
    explicit Validator(const SystemPowerEstimator &estimator,
                       double disk_dc_offset = 0.0);

    /** Validate one workload trace. */
    ValidationResult validate(const std::string &workload,
                              const SampleTrace &trace) const;

    /** Column-wise mean of several results. */
    static ValidationResult average(
        const std::vector<ValidationResult> &results,
        const std::string &label);

  private:
    const SystemPowerEstimator &estimator_;
    double diskDcOffset_;
};

} // namespace tdp

#endif // TDP_CORE_VALIDATOR_HH
