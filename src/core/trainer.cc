/**
 * @file
 * Implementation of the model trainer.
 */

#include "core/trainer.hh"

#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "measure/trace_io.hh"
#include "obs/span_tracer.hh"
#include "obs/stats_registry.hh"

namespace tdp {

uint64_t
TrainingReport::totalDiscarded() const
{
    uint64_t acc = 0;
    for (const RailCleaning &rail : rails)
        acc += rail.discarded();
    return acc;
}

std::string
TrainingReport::describe() const
{
    std::string text;
    for (int r = 0; r < numRails; ++r) {
        const RailCleaning &c = rails[static_cast<size_t>(r)];
        text += formatString(
            "%-8s kept %llu, discarded %llu non-finite + %llu "
            "outlier\n",
            railName(static_cast<Rail>(r)),
            static_cast<unsigned long long>(c.kept),
            static_cast<unsigned long long>(c.discardedNonFinite),
            static_cast<unsigned long long>(c.discardedOutlier));
    }
    return text;
}

namespace {

/** Comma-joined rail names with registered traces, or "none". */
std::string
registeredRails(const auto &traces)
{
    std::string names;
    for (const auto &entry : traces) {
        if (!names.empty())
            names += ", ";
        names += railName(static_cast<Rail>(entry.first));
    }
    return names.empty() ? std::string("none") : names;
}

} // namespace

void
ModelTrainer::setTrainingTrace(Rail rail, const SampleTrace &trace)
{
    if (trace.empty())
        fatal("ModelTrainer: empty training trace for %s",
              railName(rail));
    for (const auto &entry : traces_) {
        if (traceBitIdentical(*entry.second, trace)) {
            traces_[static_cast<int>(rail)] = entry.second;
            return;
        }
    }
    traces_[static_cast<int>(rail)] =
        std::make_shared<const SampleTrace>(trace);
}

bool
ModelTrainer::complete() const
{
    for (int r = 0; r < numRails; ++r)
        if (traces_.find(r) == traces_.end())
            return false;
    return true;
}

const SampleTrace &
ModelTrainer::trainingTrace(Rail rail) const
{
    auto it = traces_.find(static_cast<int>(rail));
    if (it == traces_.end())
        fatal("ModelTrainer: no training trace registered for rail "
              "%s; registered rails: %s. Register one with "
              "setTrainingTrace(Rail::%s, trace).",
              railName(rail), registeredRails(traces_).c_str(),
              railName(rail));
    return *it->second;
}

const SampleTrace &
ModelTrainer::cleanTrace(const SampleTrace &trace, Rail rail,
                         TrainingReport::RailCleaning &counts,
                         SampleTrace &scrubbed) const
{
    const std::vector<double> &measured = trace.measuredColumn(rail);
    std::vector<size_t> kept;
    for (size_t i = 0; i < measured.size(); ++i) {
        const double w = measured[i];
        if (!std::isfinite(w)) {
            ++counts.discardedNonFinite;
            continue;
        }
        if (w < policy_.minPlausibleWatts ||
            w > policy_.maxPlausibleWatts) {
            ++counts.discardedOutlier;
            continue;
        }
        kept.push_back(i);
        ++counts.kept;
    }
    if (kept.size() == trace.size())
        return trace;
    scrubbed = trace.subset(kept);
    return scrubbed;
}

TrainingReport
ModelTrainer::train(SystemPowerEstimator &estimator) const
{
    TrainingReport report;
    // One rate table per distinct scrubbed trace: rails sharing a
    // registered trace that their scrubs left whole share its table.
    std::array<SampleTrace, numRails> scrubbed;
    std::vector<std::unique_ptr<TraceRates>> rates;
    auto rates_for = [&rates](const SampleTrace &trace)
        -> const TraceRates & {
        for (const auto &table : rates)
            if (&table->trace() == &trace)
                return *table;
        rates.push_back(std::make_unique<TraceRates>(trace));
        return *rates.back();
    };
    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        const SampleTrace &registered = trainingTrace(rail);
        auto &counts = report.rails[static_cast<size_t>(r)];
        obs::TraceSpan span(
            "train", std::string("fit:") + railName(rail));
        const SampleTrace &clean = cleanTrace(
            registered, rail, counts, scrubbed[static_cast<size_t>(r)]);
        if (clean.empty())
            fatal("ModelTrainer: every sample of the %s training "
                  "trace was discarded (%llu non-finite, %llu "
                  "outlier); the measurement run is unusable",
                  railName(rail),
                  static_cast<unsigned long long>(
                      counts.discardedNonFinite),
                  static_cast<unsigned long long>(
                      counts.discardedOutlier));
        if (counts.discarded() > 0)
            warn("ModelTrainer: discarded %llu of %llu %s training "
                 "samples (%llu non-finite, %llu outlier)",
                 static_cast<unsigned long long>(counts.discarded()),
                 static_cast<unsigned long long>(registered.size()),
                 railName(rail),
                 static_cast<unsigned long long>(
                     counts.discardedNonFinite),
                 static_cast<unsigned long long>(
                     counts.discardedOutlier));
        estimator.trainRail(rail, rates_for(clean));
        span.arg("kept", static_cast<double>(counts.kept));
        auto &reg = obs::StatsRegistry::global();
        if (reg.enabled()) {
            const std::string prefix =
                std::string("train.") + railName(rail);
            reg.addNamed(prefix + ".kept", counts.kept);
            reg.addNamed(prefix + ".discarded", counts.discarded());
        }
    }
    return report;
}

} // namespace tdp
