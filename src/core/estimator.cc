/**
 * @file
 * Implementation of the system power estimator.
 */

#include "core/estimator.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hh"

namespace tdp {

namespace {

/** Named event-rate fields, for degradation diagnostics. */
struct RateField
{
    const char *name;
    double CpuEventRates::*field;
};

constexpr std::array<RateField, 12> rateFields{{
    {"cycles", &CpuEventRates::cycles},
    {"percentActive", &CpuEventRates::percentActive},
    {"uopsPerCycle", &CpuEventRates::uopsPerCycle},
    {"l3MissesPerCycle", &CpuEventRates::l3MissesPerCycle},
    {"tlbMissesPerCycle", &CpuEventRates::tlbMissesPerCycle},
    {"busTxPerMcycle", &CpuEventRates::busTxPerMcycle},
    {"dmaPerCycle", &CpuEventRates::dmaPerCycle},
    {"uncacheablePerCycle", &CpuEventRates::uncacheablePerCycle},
    {"interruptsPerCycle", &CpuEventRates::interruptsPerCycle},
    {"prefetchPerMcycle", &CpuEventRates::prefetchPerMcycle},
    {"diskInterruptsPerCycle", &CpuEventRates::diskInterruptsPerCycle},
    {"deviceInterruptsPerCycle",
     &CpuEventRates::deviceInterruptsPerCycle},
}};

/** Bit f set when rate field f is non-finite on any CPU. */
uint32_t
nonFiniteMask(const EventVector &events)
{
    uint32_t mask = 0;
    for (size_t f = 0; f < rateFields.size(); ++f)
        for (const CpuEventRates &rates : events.cpu)
            if (!std::isfinite(rates.*rateFields[f].field))
                mask |= 1u << f;
    return mask;
}

/** Comma-joined names of the rate fields set in @p mask. */
std::string
rateNames(uint32_t mask)
{
    std::string names;
    for (size_t f = 0; f < rateFields.size(); ++f) {
        if (!(mask & (1u << f)))
            continue;
        if (!names.empty())
            names += ", ";
        names += rateFields[f].name;
    }
    return names;
}

/** The rung name a chain's last rung degrades to. */
const std::string noRung = "(none)";

/** Upper bound on distinct degradation reasons kept per rail. */
constexpr size_t maxReasons = 8;

} // namespace

Watts
PowerBreakdown::total() const
{
    Watts acc = 0.0;
    for (Watts w : watts)
        acc += w;
    return acc;
}

bool
HealthReport::degraded() const
{
    for (const RailHealth &rail : rails)
        if (!rail.healthy())
            return true;
    return false;
}

std::string
HealthReport::describe() const
{
    std::string text;
    for (const RailHealth &rail : rails) {
        text += formatString(
            "%-8s %s: %llu estimates, %llu degraded, %llu unestimable",
            rail.rail.c_str(), rail.healthy() ? "healthy " : "DEGRADED",
            static_cast<unsigned long long>(rail.estimates),
            static_cast<unsigned long long>(rail.degraded),
            static_cast<unsigned long long>(rail.unestimable));
        for (size_t r = 0; r < rail.rungNames.size(); ++r) {
            if (rail.rungUses.size() > r && rail.rungUses[r] > 0)
                text += formatString(
                    " [%s: %llu]", rail.rungNames[r].c_str(),
                    static_cast<unsigned long long>(rail.rungUses[r]));
        }
        text += '\n';
        for (const std::string &reason : rail.reasons)
            text += "         - " + reason + '\n';
    }
    return text;
}

SystemPowerEstimator
SystemPowerEstimator::makePaperModelSet()
{
    SystemPowerEstimator est;
    est.setModel(std::make_unique<CpuPowerModel>());
    est.setModel(makeMemoryBusModel());
    est.setModel(std::make_unique<DiskPowerModel>());
    est.setModel(makeIoInterruptModel());
    est.setModel(std::make_unique<ChipsetPowerModel>());
    return est;
}

SystemPowerEstimator
SystemPowerEstimator::makeDegradableModelSet()
{
    SystemPowerEstimator est = makePaperModelSet();
    est.addFallback(std::make_unique<ConstantPowerModel>(Rail::Cpu));
    est.addFallback(makeMemoryL3Model());
    est.addFallback(std::make_unique<ConstantPowerModel>(Rail::Memory));
    est.addFallback(std::make_unique<ConstantPowerModel>(Rail::Disk));
    est.addFallback(std::make_unique<ConstantPowerModel>(Rail::Io));
    return est;
}

void
SystemPowerEstimator::setModel(std::unique_ptr<SubsystemModel> model)
{
    if (!model)
        fatal("SystemPowerEstimator: null model");
    const size_t idx = static_cast<size_t>(model->rail());
    models_[idx] = std::move(model);
    // A reason key names a rung by position; the chain just changed.
    health_[idx].reasonKeys.clear();
}

void
SystemPowerEstimator::addFallback(std::unique_ptr<SubsystemModel> model)
{
    if (!model)
        fatal("SystemPowerEstimator: null fallback model");
    const size_t idx = static_cast<size_t>(model->rail());
    if (!models_[idx])
        fatal("SystemPowerEstimator: fallback %s for rail %s needs a "
              "primary model first; call setModel() before "
              "addFallback()",
              model->name().c_str(), railName(model->rail()));
    fallbacks_[idx].push_back(std::move(model));
    health_[idx].reasonKeys.clear();
}

namespace {

/** Comma-joined rail names with installed models, or "none". */
std::string
installedRails(
    const std::array<std::unique_ptr<SubsystemModel>, numRails> &models)
{
    std::string names;
    for (int r = 0; r < numRails; ++r) {
        if (!models[static_cast<size_t>(r)])
            continue;
        if (!names.empty())
            names += ", ";
        names += railName(static_cast<Rail>(r));
        names += " (";
        names += models[static_cast<size_t>(r)]->name();
        names += ")";
    }
    return names.empty() ? std::string("none") : names;
}

} // namespace

SubsystemModel &
SystemPowerEstimator::model(Rail rail)
{
    return const_cast<SubsystemModel &>(std::as_const(*this).model(rail));
}

const SubsystemModel &
SystemPowerEstimator::model(Rail rail) const
{
    const auto &m = models_[static_cast<size_t>(rail)];
    if (!m)
        fatal("SystemPowerEstimator: no model installed for rail %s; "
              "installed models: %s. Install one with setModel() or "
              "start from makePaperModelSet().",
              railName(rail), installedRails(models_).c_str());
    return *m;
}

bool
SystemPowerEstimator::ready() const
{
    for (const auto &m : models_)
        if (!m || !m->trained())
            return false;
    return true;
}

void
SystemPowerEstimator::trainAll(const SampleTrace &trace)
{
    const TraceRates rates(trace);
    for (int r = 0; r < numRails; ++r)
        if (models_[static_cast<size_t>(r)])
            trainRail(static_cast<Rail>(r), rates);
}

void
SystemPowerEstimator::trainRail(Rail rail, const TraceRates &rates)
{
    const size_t i = static_cast<size_t>(rail);
    SubsystemModel &primary = model(rail);
    if (fallbacks_[i].empty()) {
        primary.fit(rates);
        return;
    }
    // With fallback rungs below it, a primary whose regressors are
    // unusable (e.g. its PMU events were unavailable all run,
    // leaving the columns non-finite) is left untrained and the
    // chain degrades at estimate time instead of aborting.
    try {
        primary.fit(rates);
    } catch (const FatalError &e) {
        warn("training %s failed (%s); rail %s will rely on its "
             "fallback chain",
             primary.name().c_str(), e.what(), railName(rail));
    }
    for (auto &rung : fallbacks_[i]) {
        try {
            rung->fit(rates);
        } catch (const FatalError &e) {
            warn("training fallback %s failed (%s); rung skipped",
                 rung->name().c_str(), e.what());
        }
    }
}

void
SystemPowerEstimator::recordReason(RailHealthState &state, size_t rung,
                                   const EventVector &events,
                                   const std::string &from,
                                   const std::string &to) const
{
    if (state.reasons.size() >= maxReasons)
        return;
    // The reason text is a function of the rung and of which rate
    // fields are non-finite, so a key already seen needs no text.
    const uint32_t mask = nonFiniteMask(events);
    const uint64_t key = static_cast<uint64_t>(rung) << 32 | mask;
    if (std::find(state.reasonKeys.begin(), state.reasonKeys.end(),
                  key) != state.reasonKeys.end())
        return;
    state.reasonKeys.push_back(key);
    std::string reason = from + " -> " + to;
    reason += mask == 0 ? std::string(": untrained")
                        : ": non-finite rates (" + rateNames(mask) + ")";
    if (std::find(state.reasons.begin(), state.reasons.end(), reason) ==
        state.reasons.end())
        state.reasons.push_back(reason);
}

Watts
SystemPowerEstimator::estimateRail(const EventVector &events,
                                   Rail rail) const
{
    const size_t idx = static_cast<size_t>(rail);
    const SubsystemModel &primary = model(rail);

    auto &state = health_[idx];
    const auto &chain = fallbacks_[idx];
    if (state.rungUses.size() != chain.size() + 1)
        state.rungUses.assign(chain.size() + 1, 0);
    ++state.estimates;

    // Single-model rails keep the legacy contract exactly: whatever
    // the model returns (or throws, when untrained) passes through.
    if (chain.empty()) {
        const Watts w = primary.estimate(events);
        if (std::isfinite(w)) {
            ++state.rungUses[0];
        } else {
            ++state.unestimable;
            recordReason(state, 0, events, primary.name(), noRung);
        }
        return w;
    }

    for (size_t r = 0; r < chain.size() + 1; ++r) {
        const SubsystemModel &m =
            r == 0 ? primary : *chain[r - 1];
        const std::string &next =
            r < chain.size() ? chain[r]->name() : noRung;
        if (!m.trained()) {
            recordReason(state, r, events, m.name(), next);
            continue;
        }
        const Watts w = m.estimate(events);
        if (!std::isfinite(w)) {
            recordReason(state, r, events, m.name(), next);
            continue;
        }
        ++state.rungUses[r];
        if (r > 0)
            ++state.degraded;
        return w;
    }

    ++state.unestimable;
    return std::numeric_limits<double>::quiet_NaN();
}

PowerBreakdown
SystemPowerEstimator::estimate(const EventVector &events) const
{
    PowerBreakdown out;
    for (int r = 0; r < numRails; ++r)
        out.watts[static_cast<size_t>(r)] =
            estimateRail(events, static_cast<Rail>(r));
    return out;
}

namespace {

/**
 * The estimator's one per-sample loop: call fn with each sample's
 * event vector, in trace order, reusing one vector's storage.
 */
template <typename Fn>
void
forEachSample(const SampleTrace &trace, Fn &&fn)
{
    EventVector events;
    for (size_t i = 0; i < trace.size(); ++i) {
        EventVector::fromTraceInto(trace, i, events);
        fn(events);
    }
}

} // namespace

std::vector<PowerBreakdown>
SystemPowerEstimator::estimateTrace(const SampleTrace &trace) const
{
    std::vector<PowerBreakdown> out;
    out.reserve(trace.size());
    forEachSample(trace, [&](const EventVector &events) {
        out.push_back(estimate(events));
    });
    return out;
}

std::vector<double>
SystemPowerEstimator::modeledColumn(const SampleTrace &trace,
                                    Rail rail) const
{
    std::vector<double> out;
    out.reserve(trace.size());
    forEachSample(trace, [&](const EventVector &events) {
        out.push_back(estimateRail(events, rail));
    });
    return out;
}

HealthReport
SystemPowerEstimator::health() const
{
    HealthReport report;
    for (int r = 0; r < numRails; ++r) {
        const size_t i = static_cast<size_t>(r);
        RailHealth &rail = report.rails[i];
        const RailHealthState &state = health_[i];
        rail.rail = railName(static_cast<Rail>(r));
        if (models_[i]) {
            rail.rungNames.push_back(models_[i]->name());
            for (const auto &rung : fallbacks_[i])
                rail.rungNames.push_back(rung->name());
        }
        rail.rungUses = state.rungUses;
        rail.rungUses.resize(rail.rungNames.size(), 0);
        rail.estimates = state.estimates;
        rail.degraded = state.degraded;
        rail.unestimable = state.unestimable;
        rail.reasons = state.reasons;
    }
    return report;
}

void
SystemPowerEstimator::resetHealth()
{
    for (auto &state : health_)
        state = RailHealthState{};
}

std::string
SystemPowerEstimator::describe() const
{
    std::string text;
    for (const auto &m : models_) {
        if (m && m->trained()) {
            text += m->describe();
            text += '\n';
        }
    }
    return text;
}

} // namespace tdp
