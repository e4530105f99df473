/**
 * @file
 * Implementation of the validator.
 */

#include "core/validator.hh"

#include "common/logging.hh"
#include "stats/metrics.hh"

namespace tdp {

Validator::Validator(const SystemPowerEstimator &estimator,
                     double disk_dc_offset)
    : estimator_(estimator), diskDcOffset_(disk_dc_offset)
{
}

ValidationResult
Validator::validate(const std::string &workload,
                    const SampleTrace &trace) const
{
    if (trace.empty())
        fatal("Validator: empty trace for workload '%s'",
              workload.c_str());

    ValidationResult result;
    result.workload = workload;
    const std::array<std::vector<double>, numRails> estimates =
        estimator_.estimateTrace(trace);
    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        const std::vector<double> &modeled =
            estimates[static_cast<size_t>(r)];
        const std::vector<double> &measured =
            trace.measuredColumn(rail);
        double err;
        uint64_t discarded = 0;
        if (rail == Rail::Disk && diskDcOffset_ > 0.0) {
            err = averageErrorAboveDc(modeled, measured, diskDcOffset_,
                                      &discarded);
        } else {
            err = averageError(modeled, measured, &discarded);
        }
        result.averageError[static_cast<size_t>(r)] = err;
        result.discardedPairs[static_cast<size_t>(r)] = discarded;
    }
    return result;
}

ValidationResult
Validator::average(const std::vector<ValidationResult> &results,
                   const std::string &label)
{
    ValidationResult avg;
    avg.workload = label;
    if (results.empty())
        return avg;
    for (const ValidationResult &r : results)
        for (int i = 0; i < numRails; ++i)
            avg.averageError[static_cast<size_t>(i)] +=
                r.averageError[static_cast<size_t>(i)];
    for (int i = 0; i < numRails; ++i)
        avg.averageError[static_cast<size_t>(i)] /=
            static_cast<double>(results.size());
    return avg;
}

} // namespace tdp
