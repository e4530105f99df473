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

const SubsystemModel &
SystemPowerEstimator::rung(size_t rail, size_t r) const
{
    return r == 0 ? *models_[rail] : *fallbacks_[rail][r - 1];
}

void
SystemPowerEstimator::recordReason(RailHealthState &state, size_t rail,
                                   size_t r, uint32_t mask) const
{
    state.reasonKeys.push_back(static_cast<uint64_t>(r) << 32 | mask);
    const auto &chain = fallbacks_[rail];
    std::string reason = rung(rail, r).name() + " -> " +
                         (r < chain.size() ? chain[r]->name() : noRung);
    reason += mask == 0 ? std::string(": untrained")
                        : ": non-finite rates (" + rateFieldNames(mask) +
                              ")";
    if (std::find(state.reasons.begin(), state.reasons.end(), reason) ==
        state.reasons.end())
        state.reasons.push_back(reason);
}

template <typename Trained, typename Value, typename Mask>
Watts
SystemPowerEstimator::walkChain(size_t rail, const Trained &trained,
                                const Value &value,
                                const Mask &mask) const
{
    auto &state = health_[rail];
    const auto &chain = fallbacks_[rail];
    if (state.rungUses.size() != chain.size() + 1)
        state.rungUses.assign(chain.size() + 1, 0);
    ++state.estimates;
    // Why rung r failed. The reason text is a function of the rung and
    // of which rate fields are non-finite, so a (rung, mask) key
    // already seen needs no text, and a full list needs no mask.
    const auto fail = [&](size_t r) {
        if (state.reasons.size() >= maxReasons)
            return;
        const uint32_t m = mask();
        const uint64_t key = static_cast<uint64_t>(r) << 32 | m;
        if (std::find(state.reasonKeys.begin(), state.reasonKeys.end(),
                      key) == state.reasonKeys.end())
            recordReason(state, rail, r, m);
    };

    // Single-model rails keep the legacy contract exactly: whatever
    // the model returns (or throws, when untrained) passes through.
    if (chain.empty()) {
        const Watts w = value(0);
        if (std::isfinite(w)) {
            ++state.rungUses[0];
        } else {
            ++state.unestimable;
            fail(0);
        }
        return w;
    }

    for (size_t r = 0; r < chain.size() + 1; ++r) {
        if (trained(r)) {
            const Watts w = value(r);
            if (std::isfinite(w)) {
                ++state.rungUses[r];
                if (r > 0)
                    ++state.degraded;
                return w;
            }
        }
        fail(r);
    }

    ++state.unestimable;
    return std::numeric_limits<double>::quiet_NaN();
}

Watts
SystemPowerEstimator::estimateRail(const EventVector &events,
                                   Rail rail) const
{
    const size_t idx = static_cast<size_t>(rail);
    const SubsystemModel &primary = model(rail);
    const auto &chain = fallbacks_[idx];
    const auto at = [&](size_t r) -> const SubsystemModel & {
        return r == 0 ? primary : *chain[r - 1];
    };
    return walkChain(
        idx, [&](size_t r) { return at(r).trained(); },
        [&](size_t r) { return at(r).estimate(events); },
        [&] { return events.nonFiniteMask(); });
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

size_t
SystemPowerEstimator::walkLength(const TraceRates &rates, size_t first,
                                 size_t last) const
{
    // A rail that cannot estimate at all (no model, or an untrained
    // model with no fallback) throws on its first sample, as the
    // per-sample walk did after the rails before it had estimated
    // that sample: walk that one sample only, so health matches.
    size_t n = rates.derived();
    for (size_t r = first; r < last; ++r)
        if (!models_[r] || (fallbacks_[r].empty() && !models_[r]->trained()))
            n = std::min<size_t>(n, 1);
    return n;
}

void
SystemPowerEstimator::walkTrace(const TraceRates &rates, size_t n,
                                size_t rail,
                                std::vector<double> &out) const
{
    out.resize(n);
    if (n == 0)
        return;
    model(static_cast<Rail>(rail)); // fatal() when the rail has no model
    const size_t rungs = fallbacks_[rail].size() + 1;
    std::vector<char> trained(rungs);
    for (size_t r = 0; r < rungs; ++r)
        trained[r] = rung(rail, r).trained();
    // Each rung's column, evaluated the first time the walk needs it.
    std::vector<std::vector<double>> columns(rungs);
    for (size_t i = 0; i < n; ++i) {
        out[i] = walkChain(
            rail, [&](size_t r) { return trained[r] != 0; },
            [&](size_t r) {
                std::vector<double> &column = columns[r];
                if (column.empty())
                    rung(rail, r).estimateColumn(rates, column);
                return column[i];
            },
            [&] { return rates.nonFiniteMask(i); });
    }
}

std::array<std::vector<double>, numRails>
SystemPowerEstimator::estimateTrace(const SampleTrace &trace) const
{
    const TraceRates rates(trace);
    const size_t n = walkLength(rates, 0, numRails);
    std::array<std::vector<double>, numRails> out;
    for (size_t r = 0; r < numRails; ++r)
        walkTrace(rates, n, r, out[r]);
    rates.requireDerived();
    return out;
}

std::vector<double>
SystemPowerEstimator::modeledColumn(const SampleTrace &trace,
                                    Rail rail) const
{
    const size_t idx = static_cast<size_t>(rail);
    const TraceRates rates(trace);
    std::vector<double> out;
    walkTrace(rates, walkLength(rates, idx, idx + 1), idx, out);
    rates.requireDerived();
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
