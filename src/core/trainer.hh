/**
 * @file
 * Model trainer implementing the paper's training discipline
 * (section 3.2.2): each subsystem model is fit on a single workload
 * trace that exercises that subsystem with high utilisation and high
 * variation, then validated on the whole suite.
 *
 * Real measurement rigs deliver imperfect traces - DAQ glitches leave
 * NaN/Inf window averages and transients leave implausible spikes -
 * so training first scrubs each rail's trace: non-finite and
 * out-of-range measured values are discarded and counted, and the
 * counts are reported so a silently-degraded calibration is visible.
 */

#ifndef TDP_CORE_TRAINER_HH
#define TDP_CORE_TRAINER_HH

#include <array>
#include <map>
#include <memory>
#include <string>

#include "core/estimator.hh"
#include "measure/trace.hh"

namespace tdp {

/** What training discarded, per rail. */
struct TrainingReport
{
    /** Scrub counts for one rail's training trace. */
    struct RailCleaning
    {
        /** Samples used for the fit. */
        uint64_t kept = 0;

        /** Samples dropped for a NaN/Inf measured value. */
        uint64_t discardedNonFinite = 0;

        /** Samples dropped for an implausible measured value. */
        uint64_t discardedOutlier = 0;

        /** All discarded samples. */
        uint64_t
        discarded() const
        {
            return discardedNonFinite + discardedOutlier;
        }
    };

    /** Per-rail scrub counts, in rail order. */
    std::array<RailCleaning, numRails> rails;

    /** Discarded samples across all rails. */
    uint64_t totalDiscarded() const;

    /** Human-readable multi-line summary. */
    std::string describe() const;
};

/** Trains an estimator from per-rail training traces. */
class ModelTrainer
{
  public:
    /** Trace-scrubbing configuration. */
    struct Policy
    {
        /** Measured values above this are discarded as glitches. */
        Watts maxPlausibleWatts = 2000.0;

        /** Measured values below this are discarded as glitches. */
        Watts minPlausibleWatts = 0.0;
    };

    ModelTrainer() : ModelTrainer(Policy{}) {}

    explicit ModelTrainer(const Policy &policy) : policy_(policy) {}

    /**
     * Register the training trace for a rail. The paper's choices:
     * CPU <- staggered gcc, memory <- staggered mcf, disk and I/O <-
     * the synthetic DiskLoad, chipset <- any (constant fit). Rails
     * registered with bit-identical traces share one stored copy.
     */
    void setTrainingTrace(Rail rail, const SampleTrace &trace);

    /** True when every rail has a registered trace. */
    bool complete() const;

    /**
     * Train all models of the estimator (primaries and fallback
     * rungs) on their rails' scrubbed traces, reporting how many
     * samples each rail's scrub discarded. Rates are derived once
     * per distinct scrubbed trace.
     */
    TrainingReport train(SystemPowerEstimator &estimator) const;

    /** The registered trace for one rail; fatal() when missing. */
    const SampleTrace &trainingTrace(Rail rail) const;

    /**
     * The trace with the samples unusable for fitting this rail
     * removed: non-finite or implausible measured values. Returns
     * @p trace itself when nothing is discarded; otherwise fills
     * @p scrubbed with the kept samples and returns it.
     */
    const SampleTrace &cleanTrace(const SampleTrace &trace, Rail rail,
                                  TrainingReport::RailCleaning &counts,
                                  SampleTrace &scrubbed) const;

  private:
    Policy policy_;
    std::map<int, std::shared_ptr<const SampleTrace>> traces_;
};

} // namespace tdp

#endif // TDP_CORE_TRAINER_HH
