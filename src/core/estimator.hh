/**
 * @file
 * System power estimator: the runtime artifact the paper enables -
 * five trained subsystem models fed by one per-second counter sample,
 * no power sensing hardware required.
 *
 * Production PMUs cannot always schedule every event (multiplexing
 * pressure), so each rail may carry a *fallback chain* behind its
 * primary model: e.g. memory Equation 3 (bus transactions) degrades
 * to Equation 2 (L3 misses) and finally to a trained constant when
 * the required events read as NaN. Every degraded estimate is
 * recorded in a Health report naming the rung used and why.
 */

#ifndef TDP_CORE_ESTIMATOR_HH
#define TDP_CORE_ESTIMATOR_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/model.hh"

namespace tdp {

/** One estimate: per-subsystem and total power. */
struct PowerBreakdown
{
    /** Per-rail estimated power (W). */
    std::array<Watts, numRails> watts{};

    /** Power of one rail. */
    Watts
    rail(Rail r) const
    {
        return watts[static_cast<size_t>(r)];
    }

    /** Total system power (W). */
    Watts total() const;
};

/** How one rail's estimates have been produced since the last reset. */
struct RailHealth
{
    /** Rail display name. */
    std::string rail;

    /** Model names, primary first, then the fallback rungs. */
    std::vector<std::string> rungNames;

    /** Estimates produced by each rung (index-parallel to names). */
    std::vector<uint64_t> rungUses;

    /** Total estimates for this rail. */
    uint64_t estimates = 0;

    /** Estimates that came from a fallback rung. */
    uint64_t degraded = 0;

    /** Estimates where no rung produced a finite value. */
    uint64_t unestimable = 0;

    /** Unique degradation reasons observed (bounded). */
    std::vector<std::string> reasons;

    /** True when every estimate came from the primary model. */
    bool healthy() const { return degraded == 0 && unestimable == 0; }
};

/** Degradation report across all rails. */
struct HealthReport
{
    /** Per-rail health, in rail order. */
    std::array<RailHealth, numRails> rails;

    /** True when any rail estimated below its primary model. */
    bool degraded() const;

    /** Human-readable multi-line summary. */
    std::string describe() const;
};

/**
 * Holds one model per subsystem and evaluates them together. The
 * default configuration is the paper's final model set: CPU fetch
 * model, memory bus-transaction model, disk interrupt+DMA model, I/O
 * interrupt model and the chipset constant.
 *
 * Health accounting is not synchronised: share one estimator across
 * threads only for read-free use, or give each thread its own copy.
 */
class SystemPowerEstimator
{
  public:
    /** Build with the paper's final model set (untrained). */
    static SystemPowerEstimator makePaperModelSet();

    /**
     * Build the paper model set with graceful-degradation fallback
     * chains: memory bus -> L3 miss -> constant; CPU, disk and I/O
     * each degrade to a trained constant. The chipset primary is
     * already a constant and needs no fallback.
     */
    static SystemPowerEstimator makeDegradableModelSet();

    /** Build empty; add models with setModel(). */
    SystemPowerEstimator() = default;

    /** Install (or replace) the primary model for its rail. */
    void setModel(std::unique_ptr<SubsystemModel> model);

    /**
     * Append a fallback rung behind the rail's primary model. The
     * primary must already be installed; rungs are consulted in
     * installation order when every earlier rung yields a non-finite
     * estimate (e.g. its PMU events are unavailable).
     */
    void addFallback(std::unique_ptr<SubsystemModel> model);

    /** The fallback chain of one rail (may be empty). */
    const std::vector<std::unique_ptr<SubsystemModel>> &
    fallbacks(Rail rail) const
    {
        return fallbacks_[static_cast<size_t>(rail)];
    }

    /** The primary model for one rail; fatal() if absent. */
    SubsystemModel &model(Rail rail);

    /** The primary model for one rail; fatal() if absent. */
    const SubsystemModel &model(Rail rail) const;

    /** True when all five rails have trained primary models. */
    bool ready() const;

    /** Train every installed model (and rung) on one shared trace. */
    void trainAll(const SampleTrace &trace);

    /**
     * Train one rail's primary model and fallback rungs on one
     * trace. When the rail has fallbacks, a rung whose fit fails
     * (e.g. its PMU events were unavailable all run, leaving the
     * regressors non-finite) is left untrained with a warning and
     * the chain degrades at estimate time; a single-model rail
     * propagates the failure as before.
     */
    void trainRail(Rail rail, const TraceRates &rates);

    /**
     * Estimate one rail for one sample, walking the fallback chain
     * until a trained rung yields a finite value. Degradations are
     * recorded in the health report.
     */
    Watts estimateRail(const EventVector &events, Rail rail) const;

    /** Estimate all subsystems for one sample. */
    PowerBreakdown estimate(const EventVector &events) const;

    /**
     * Estimate every rail across a whole trace, rail-major: each
     * rail's rungs evaluate their columns once from one rate table,
     * and the chain is walked per sample on those values with
     * estimateRail()'s accounting, so the values and the health
     * report (counts, and reasons in their order) equal a per-sample
     * estimateRail() walk. A zero-cycle sample raises the event
     * vector's fatal() after the samples before it are recorded.
     */
    std::array<std::vector<double>, numRails> estimateTrace(
        const SampleTrace &trace) const;

    /** Modeled power column for one rail over a trace. */
    std::vector<double> modeledColumn(const SampleTrace &trace,
                                      Rail rail) const;

    /** Degradation report accumulated since the last reset. */
    HealthReport health() const;

    /** Clear the degradation accounting. */
    void resetHealth();

    /** Describe all models (fitted equations). */
    std::string describe() const;

  private:
    /** Mutable per-rail health accumulators. */
    struct RailHealthState
    {
        uint64_t estimates = 0;
        uint64_t degraded = 0;
        uint64_t unestimable = 0;
        std::vector<uint64_t> rungUses;
        std::vector<std::string> reasons;
        /** (rung, non-finite-field mask) keys already recorded. */
        std::vector<uint64_t> reasonKeys;
    };

    /** Rung @p r of rail @p rail: 0 the primary, then the fallbacks. */
    const SubsystemModel &rung(size_t rail, size_t r) const;

    /** Record the reason of a new (rung @p r, rate @p mask) key. */
    void recordReason(RailHealthState &state, size_t rail, size_t r,
                      uint32_t mask) const;

    /**
     * The one chain walk, for one sample of rail @p rail: trained(r)
     * and value(r) give rung r's state and estimate; mask() gives the
     * sample's non-finite rate mask and is called only while the
     * rail's reason list has room.
     */
    template <typename Trained, typename Value, typename Mask>
    Watts walkChain(size_t rail, const Trained &trained,
                    const Value &value, const Mask &mask) const;

    /** Samples a trace walk of the rails in [first, last) covers. */
    size_t walkLength(const TraceRates &rates, size_t first,
                      size_t last) const;

    /** Walk rail @p rail over the first @p n samples into @p out. */
    void walkTrace(const TraceRates &rates, size_t n, size_t rail,
                   std::vector<double> &out) const;

    std::array<std::unique_ptr<SubsystemModel>, numRails> models_;
    std::array<std::vector<std::unique_ptr<SubsystemModel>>, numRails>
        fallbacks_;
    mutable std::array<RailHealthState, numRails> health_;
};

} // namespace tdp

#endif // TDP_CORE_ESTIMATOR_HH
