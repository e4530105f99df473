/**
 * @file
 * Tests for graceful degradation: fallback chains, health
 * accounting, training-trace scrubbing and the actionable error
 * messages of the estimator/trainer accessors.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/estimator.hh"
#include "core/trainer.hh"
#include "core/validator.hh"
#include "stats/metrics.hh"

#include "synthetic_trace.hh"

namespace tdp {
namespace {

constexpr size_t idx(Rail r) { return static_cast<size_t>(r); }

/** One sample exercising every rail with model-shaped ground truth. */
AlignedSample
fullSample(double u, int i)
{
    SyntheticPoint pt;
    pt.activeFraction = 0.02 + 0.98 * u;
    pt.uopsPerCycle = 2.0 * u * (1.0 + 0.1 * ((i % 3) - 1));
    pt.busTxPerCycle = 0.03 * u;
    pt.l3MissesPerCycle = 0.004 * u * (1.0 + 0.05 * (i % 2));
    // Varied independently of the u ramp so the disk model's two
    // inputs are not collinear.
    pt.dmaPerCycle = 1e-4 * ((i % 4) / 3.0);
    pt.diskIrqPerSecond = 800.0 * u;
    pt.deviceIrqPerSecond = 1000.0 * u * (1.0 + 0.1 * (i % 2));
    const double bus_mcycle = pt.busTxPerCycle * 1e6;
    std::array<double, numRails> watts{};
    watts[idx(Rail::Cpu)] =
        4.0 * (9.25 + 26.45 * pt.activeFraction +
               4.31 * pt.uopsPerCycle);
    watts[idx(Rail::Memory)] =
        28.0 + 4.0 * (3e-4 * bus_mcycle +
                      4e-9 * bus_mcycle * bus_mcycle);
    watts[idx(Rail::Disk)] =
        21.6 + 3e-3 * pt.diskIrqPerSecond + 3e4 * pt.dmaPerCycle;
    watts[idx(Rail::Io)] = 32.6 + 1e-3 * pt.deviceIrqPerSecond;
    watts[idx(Rail::Chipset)] = 19.9;
    return makeSyntheticSample(pt, watts, 4, i);
}

/** A whole-suite trace so trainAll() can fit every rung at once. */
SampleTrace
fullTrace(int samples = 60)
{
    return sweepTrace(samples, fullSample);
}

/**
 * fullTrace with one rail's measured column overridden at chosen
 * sample indices (the way DAQ glitches land in real traces).
 */
SampleTrace
corruptedTrace(int samples, Rail rail,
               const std::vector<std::pair<int, double>> &overrides)
{
    return sweepTrace(samples, [&](double u, int i) {
        AlignedSample s = fullSample(u, i);
        for (const auto &[index, watts] : overrides) {
            if (index == i)
                s.measuredWatts[idx(rail)] = watts;
        }
        return s;
    });
}

/** NaN-mask some PMU events of every CPU in a sample. */
AlignedSample
maskEvents(AlignedSample sample, std::initializer_list<PerfEvent> events)
{
    for (CounterSnapshot &snap : sample.perCpu) {
        for (PerfEvent e : events)
            snap[e] = std::numeric_limits<double>::quiet_NaN();
    }
    return sample;
}

SyntheticPoint
busyPoint()
{
    SyntheticPoint pt;
    pt.activeFraction = 0.6;
    pt.uopsPerCycle = 0.8;
    pt.busTxPerCycle = 0.01;
    pt.diskIrqPerSecond = 300.0;
    pt.deviceIrqPerSecond = 500.0;
    return pt;
}

TEST(DegradableModelSet, ChainShapeMatchesDesign)
{
    SystemPowerEstimator est =
        SystemPowerEstimator::makeDegradableModelSet();
    EXPECT_EQ(est.model(Rail::Cpu).name(), "cpu-fetch");
    EXPECT_EQ(est.model(Rail::Memory).name(), "memory-bus");

    ASSERT_EQ(est.fallbacks(Rail::Cpu).size(), 1u);
    EXPECT_EQ(est.fallbacks(Rail::Cpu)[0]->name(),
              std::string(railName(Rail::Cpu)) + "-const");

    ASSERT_EQ(est.fallbacks(Rail::Memory).size(), 2u);
    EXPECT_EQ(est.fallbacks(Rail::Memory)[0]->name(), "memory-l3miss");
    EXPECT_EQ(est.fallbacks(Rail::Memory)[1]->name(),
              std::string(railName(Rail::Memory)) + "-const");

    ASSERT_EQ(est.fallbacks(Rail::Disk).size(), 1u);
    ASSERT_EQ(est.fallbacks(Rail::Io).size(), 1u);
    // The chipset primary is already a constant.
    EXPECT_TRUE(est.fallbacks(Rail::Chipset).empty());
}

TEST(DegradableModelSet, TrainAllTrainsEveryRung)
{
    SystemPowerEstimator est =
        SystemPowerEstimator::makeDegradableModelSet();
    est.trainAll(fullTrace());
    EXPECT_TRUE(est.ready());
    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        EXPECT_TRUE(est.model(rail).trained());
        for (const auto &rung : est.fallbacks(rail))
            EXPECT_TRUE(rung->trained()) << rung->name();
    }
}

TEST(DegradableModelSet, CleanEventsKeepEveryRailHealthy)
{
    SystemPowerEstimator est =
        SystemPowerEstimator::makeDegradableModelSet();
    est.trainAll(fullTrace());
    const EventVector ev =
        EventVector::fromSample(makeSyntheticSample(busyPoint(), {}));
    const PowerBreakdown bd = est.estimate(ev);
    EXPECT_TRUE(std::isfinite(bd.total()));

    const HealthReport health = est.health();
    EXPECT_FALSE(health.degraded());
    for (const RailHealth &rail : health.rails) {
        EXPECT_TRUE(rail.healthy());
        EXPECT_EQ(rail.estimates, 1u);
        ASSERT_FALSE(rail.rungUses.empty());
        EXPECT_EQ(rail.rungUses[0], 1u);
    }
}

TEST(DegradableModelSet, MaskedBusEventsDegradeMemoryToL3Rung)
{
    SystemPowerEstimator est =
        SystemPowerEstimator::makeDegradableModelSet();
    est.trainAll(fullTrace());
    const AlignedSample masked =
        maskEvents(makeSyntheticSample(busyPoint(), {}),
                   {PerfEvent::BusTransactions});
    const EventVector ev = EventVector::fromSample(masked);

    const Watts memory = est.estimateRail(ev, Rail::Memory);
    EXPECT_TRUE(std::isfinite(memory));
    EXPECT_GT(memory, 0.0);

    const HealthReport report = est.health();
    const RailHealth &health = report.rails[idx(Rail::Memory)];
    EXPECT_EQ(health.degraded, 1u);
    EXPECT_EQ(health.unestimable, 0u);
    ASSERT_GE(health.rungUses.size(), 2u);
    EXPECT_EQ(health.rungUses[0], 0u);
    EXPECT_EQ(health.rungUses[1], 1u); // memory-l3miss
    ASSERT_FALSE(health.reasons.empty());
    EXPECT_NE(health.reasons[0].find("memory-bus -> memory-l3miss"),
              std::string::npos);
    EXPECT_NE(health.reasons[0].find("busTxPerMcycle"),
              std::string::npos);
}

TEST(DegradableModelSet, FullyMaskedPmuFallsToConstants)
{
    SystemPowerEstimator est =
        SystemPowerEstimator::makeDegradableModelSet();
    est.trainAll(fullTrace());
    // Everything except the Cycles timestamp base is unavailable.
    const AlignedSample masked = maskEvents(
        makeSyntheticSample(busyPoint(), {}),
        {PerfEvent::HaltedCycles, PerfEvent::FetchedUops,
         PerfEvent::L3LoadMisses, PerfEvent::TlbMisses,
         PerfEvent::DmaOtherAccesses, PerfEvent::BusTransactions,
         PerfEvent::PrefetchTransactions,
         PerfEvent::UncacheableAccesses,
         PerfEvent::InterruptsServiced});
    const EventVector ev = EventVector::fromSample(masked);

    const PowerBreakdown bd = est.estimate(ev);
    EXPECT_TRUE(std::isfinite(bd.total()));

    const HealthReport health = est.health();
    EXPECT_TRUE(health.degraded());
    // CPU, memory and disk lose their PMU inputs and bottom out on
    // the constant rung; I/O runs on OS interrupt accounting and the
    // chipset was constant to begin with.
    EXPECT_EQ(health.rails[idx(Rail::Cpu)].rungUses.back(), 1u);
    EXPECT_EQ(health.rails[idx(Rail::Memory)].rungUses.back(), 1u);
    EXPECT_EQ(health.rails[idx(Rail::Disk)].rungUses.back(), 1u);
    EXPECT_TRUE(health.rails[idx(Rail::Io)].healthy());
    EXPECT_TRUE(health.rails[idx(Rail::Chipset)].healthy());
}

TEST(DegradableModelSet, UntrainedChainIsUnestimableNotFatal)
{
    SystemPowerEstimator est =
        SystemPowerEstimator::makeDegradableModelSet();
    const EventVector ev =
        EventVector::fromSample(makeSyntheticSample(busyPoint(), {}));
    const Watts memory = est.estimateRail(ev, Rail::Memory);
    EXPECT_TRUE(std::isnan(memory));

    const HealthReport report = est.health();
    const RailHealth &health = report.rails[idx(Rail::Memory)];
    EXPECT_EQ(health.unestimable, 1u);
    ASSERT_FALSE(health.reasons.empty());
    EXPECT_NE(health.reasons[0].find("untrained"), std::string::npos);
}

TEST(DegradableModelSet, ResetHealthClearsAccounting)
{
    SystemPowerEstimator est =
        SystemPowerEstimator::makeDegradableModelSet();
    est.trainAll(fullTrace());
    const AlignedSample masked =
        maskEvents(makeSyntheticSample(busyPoint(), {}),
                   {PerfEvent::BusTransactions});
    est.estimateRail(EventVector::fromSample(masked), Rail::Memory);
    EXPECT_TRUE(est.health().degraded());

    est.resetHealth();
    EXPECT_FALSE(est.health().degraded());
    EXPECT_EQ(est.health().rails[idx(Rail::Memory)].estimates, 0u);
}

TEST(DegradableModelSet, DescribeNamesDegradedRungs)
{
    SystemPowerEstimator est =
        SystemPowerEstimator::makeDegradableModelSet();
    est.trainAll(fullTrace());
    const AlignedSample masked =
        maskEvents(makeSyntheticSample(busyPoint(), {}),
                   {PerfEvent::BusTransactions});
    est.estimateRail(EventVector::fromSample(masked), Rail::Memory);

    const std::string text = est.health().describe();
    EXPECT_NE(text.find("DEGRADED"), std::string::npos);
    EXPECT_NE(text.find("memory-l3miss"), std::string::npos);
}

constexpr double nan = std::numeric_limits<double>::quiet_NaN();

/**
 * A held-out trace that walks every degradation path: NaN-masked bus
 * events with a rotating second masked event (more distinct memory
 * and CPU reasons than the per-rail cap keeps), lost device-interrupt
 * accounting, and glitched measured disk power.
 */
SampleTrace
degradedTrace(int samples)
{
    const PerfEvent second[] = {
        PerfEvent::HaltedCycles,         PerfEvent::FetchedUops,
        PerfEvent::L3LoadMisses,         PerfEvent::TlbMisses,
        PerfEvent::DmaOtherAccesses,     PerfEvent::PrefetchTransactions,
        PerfEvent::UncacheableAccesses,  PerfEvent::InterruptsServiced};
    return sweepTrace(samples, [&](double u, int i) {
        AlignedSample s = fullSample(u, i);
        if (i % 3 == 1)
            s = maskEvents(std::move(s), {PerfEvent::BusTransactions,
                                          second[(i / 3) % 8]});
        if (i % 5 == 2)
            s = maskEvents(std::move(s), {PerfEvent::BusTransactions});
        if (i % 7 == 3)
            s.osDeviceInterrupts = nan;
        if (i % 11 == 4)
            s.measuredWatts[idx(Rail::Disk)] = nan;
        return s;
    });
}

/**
 * A grid-row estimator: the CPU primary is untrained (as when its fit
 * is rank-deficient), the I/O constant rung and the chipset constant
 * yield NaN, so every rail degrades and some samples are unestimable.
 */
SystemPowerEstimator
degradedEstimator()
{
    SystemPowerEstimator est =
        SystemPowerEstimator::makeDegradableModelSet();
    est.trainAll(fullTrace());
    est.setModel(std::make_unique<CpuPowerModel>());
    est.fallbacks(Rail::Io)[0]->setCoefficients({nan});
    est.model(Rail::Chipset).setCoefficients({nan});
    return est;
}

uint64_t
bitsOf(double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

void
expectSameHealth(const HealthReport &got, const HealthReport &want)
{
    for (int r = 0; r < numRails; ++r) {
        const RailHealth &g = got.rails[static_cast<size_t>(r)];
        const RailHealth &w = want.rails[static_cast<size_t>(r)];
        SCOPED_TRACE(w.rail);
        EXPECT_EQ(g.rail, w.rail);
        EXPECT_EQ(g.rungNames, w.rungNames);
        EXPECT_EQ(g.rungUses, w.rungUses);
        EXPECT_EQ(g.estimates, w.estimates);
        EXPECT_EQ(g.degraded, w.degraded);
        EXPECT_EQ(g.unestimable, w.unestimable);
        EXPECT_EQ(g.reasons, w.reasons);
    }
}

TEST(Validator, OnePassMatchesPerRailReference)
{
    const std::vector<SampleTrace> traces = {degradedTrace(90),
                                             degradedTrace(41)};
    HealthReport one_pass;
    HealthReport per_rail;
    for (const double dc : {0.0, 21.6}) {
        SCOPED_TRACE(dc);
        const SystemPowerEstimator est = degradedEstimator();
        const SystemPowerEstimator ref = degradedEstimator();
        const Validator validator(est, dc);
        for (const SampleTrace &trace : traces) {
            const ValidationResult got =
                validator.validate("held-out", trace);
            for (int r = 0; r < numRails; ++r) {
                const Rail rail = static_cast<Rail>(r);
                const std::vector<double> modeled =
                    ref.modeledColumn(trace, rail);
                const std::vector<double> &measured =
                    trace.measuredColumn(rail);
                uint64_t discarded = 0;
                const double want =
                    rail == Rail::Disk && dc > 0.0
                        ? averageErrorAboveDc(modeled, measured, dc,
                                              &discarded)
                        : averageError(modeled, measured, &discarded);
                EXPECT_EQ(bitsOf(got.error(rail)), bitsOf(want))
                    << railName(rail);
                EXPECT_EQ(got.discardedPairs[static_cast<size_t>(r)],
                          discarded)
                    << railName(rail);
            }
        }
        one_pass = est.health();
        per_rail = ref.health();
        expectSameHealth(one_pass, per_rail);
    }

    // The reasons, rebuilt with no bookkeeping carried between
    // samples: each sample's own reasons, merged in trace order and
    // capped at eight per rail.
    SystemPowerEstimator probe = degradedEstimator();
    std::array<std::vector<std::string>, numRails> expected;
    for (const SampleTrace &trace : traces) {
        for (const AlignedSample &sample : trace.rows()) {
            probe.resetHealth();
            probe.estimate(EventVector::fromSample(sample));
            const HealthReport report = probe.health();
            for (int r = 0; r < numRails; ++r) {
                std::vector<std::string> &merged =
                    expected[static_cast<size_t>(r)];
                for (const std::string &reason :
                     report.rails[static_cast<size_t>(r)].reasons) {
                    if (merged.size() < 8 &&
                        std::find(merged.begin(), merged.end(),
                                  reason) == merged.end())
                        merged.push_back(reason);
                }
            }
        }
    }
    for (int r = 0; r < numRails; ++r)
        EXPECT_EQ(one_pass.rails[static_cast<size_t>(r)].reasons,
                  expected[static_cast<size_t>(r)])
            << railName(static_cast<Rail>(r));

    // The set really walks every path: the cap, every rung, the
    // unestimable tail, both chain shapes and discarded pairs.
    const RailHealth &cpu = one_pass.rails[idx(Rail::Cpu)];
    const RailHealth &memory = one_pass.rails[idx(Rail::Memory)];
    EXPECT_EQ(cpu.reasons.size(), 8u);
    EXPECT_EQ(memory.reasons.size(), 8u);
    EXPECT_EQ(cpu.rungUses[0], 0u);
    EXPECT_EQ(cpu.degraded, cpu.estimates);
    ASSERT_EQ(memory.rungUses.size(), 3u);
    EXPECT_GT(memory.rungUses[0], 0u);
    EXPECT_GT(memory.rungUses[1], 0u);
    EXPECT_GT(memory.rungUses[2], 0u);
    EXPECT_GT(one_pass.rails[idx(Rail::Disk)].degraded, 0u);
    EXPECT_GT(one_pass.rails[idx(Rail::Io)].unestimable, 0u);
    EXPECT_EQ(one_pass.rails[idx(Rail::Chipset)].unestimable,
              one_pass.rails[idx(Rail::Chipset)].estimates);
    EXPECT_FALSE(one_pass.rails[idx(Rail::Chipset)].reasons.empty());
}

TEST(DegradableModelSet, ReplacedPrimaryRecordsItsOwnReasons)
{
    SystemPowerEstimator est =
        SystemPowerEstimator::makeDegradableModelSet();
    est.trainAll(fullTrace());
    const EventVector ev = EventVector::fromSample(
        maskEvents(makeSyntheticSample(busyPoint(), {}),
                   {PerfEvent::BusTransactions}));
    est.estimateRail(ev, Rail::Memory);

    // Same rung position, same non-finite fields, another model name:
    // a new reason, not a repeat of the first.
    auto primary = std::make_unique<ConstantPowerModel>(Rail::Memory);
    primary->setCoefficients({nan});
    est.setModel(std::move(primary));
    est.estimateRail(ev, Rail::Memory);

    const std::string memory_const =
        std::string(railName(Rail::Memory)) + "-const";
    const std::vector<std::string> want = {
        "memory-bus -> memory-l3miss: non-finite rates (busTxPerMcycle)",
        memory_const +
            " -> memory-l3miss: non-finite rates (busTxPerMcycle)"};
    EXPECT_EQ(est.health().rails[idx(Rail::Memory)].reasons, want);
}

TEST(ActionableErrors, MissingModelNamesRailAndInstalledSet)
{
    SystemPowerEstimator est;
    est.setModel(std::make_unique<CpuPowerModel>());
    try {
        est.model(Rail::Memory);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(railName(Rail::Memory)), std::string::npos)
            << what;
        EXPECT_NE(what.find(railName(Rail::Cpu)), std::string::npos)
            << what;
        EXPECT_NE(what.find("setModel"), std::string::npos) << what;
    }
}

TEST(ActionableErrors, MissingTrainingTraceNamesRegisteredRails)
{
    ModelTrainer trainer;
    trainer.setTrainingTrace(Rail::Cpu, fullTrace(10));
    try {
        trainer.trainingTrace(Rail::Memory);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(railName(Rail::Memory)), std::string::npos)
            << what;
        EXPECT_NE(what.find(railName(Rail::Cpu)), std::string::npos)
            << what;
        EXPECT_NE(what.find("setTrainingTrace"), std::string::npos)
            << what;
    }
}

TEST(ModelTrainer, CleanTraceCountsNonFiniteAndOutliers)
{
    const SampleTrace trace = corruptedTrace(
        10, Rail::Cpu,
        {{2, std::numeric_limits<double>::quiet_NaN()},
         {4, -5.0},
         {7, 5000.0}});

    ModelTrainer trainer;
    TrainingReport::RailCleaning counts;
    SampleTrace scrubbed;
    const SampleTrace &clean =
        trainer.cleanTrace(trace, Rail::Cpu, counts, scrubbed);
    EXPECT_EQ(&clean, &scrubbed);
    EXPECT_EQ(clean.size(), 7u);
    EXPECT_EQ(counts.kept, 7u);
    EXPECT_EQ(counts.discardedNonFinite, 1u);
    EXPECT_EQ(counts.discardedOutlier, 2u);

    // The same samples are fine for a rail whose column is clean.
    // Nothing discarded: the trace itself comes back, uncopied.
    TrainingReport::RailCleaning memory_counts;
    SampleTrace unused;
    const SampleTrace &memory_clean =
        trainer.cleanTrace(trace, Rail::Memory, memory_counts, unused);
    EXPECT_EQ(&memory_clean, &trace);
    EXPECT_TRUE(unused.empty());
    EXPECT_EQ(memory_counts.discarded(), 0u);
}

TEST(ModelTrainer, TrainScrubsAndReportsDiscards)
{
    const SampleTrace glitched = corruptedTrace(
        40, Rail::Cpu,
        {{3, std::numeric_limits<double>::infinity()},
         {9, 9000.0}});

    ModelTrainer trainer;
    for (int r = 0; r < numRails; ++r)
        trainer.setTrainingTrace(static_cast<Rail>(r), glitched);
    ASSERT_TRUE(trainer.complete());

    SystemPowerEstimator est =
        SystemPowerEstimator::makeDegradableModelSet();
    const TrainingReport report = trainer.train(est);

    EXPECT_TRUE(est.ready());
    EXPECT_EQ(report.rails[idx(Rail::Cpu)].discardedNonFinite, 1u);
    EXPECT_EQ(report.rails[idx(Rail::Cpu)].discardedOutlier, 1u);
    EXPECT_EQ(report.rails[idx(Rail::Cpu)].kept, 38u);
    EXPECT_EQ(report.rails[idx(Rail::Memory)].discarded(), 0u);
    EXPECT_EQ(report.totalDiscarded(), 2u);
    EXPECT_NE(report.describe().find(railName(Rail::Cpu)),
              std::string::npos);
}

TEST(ModelTrainer, UnusableTraceIsFatal)
{
    std::vector<std::pair<int, double>> all_nan;
    for (int i = 0; i < 10; ++i) {
        all_nan.emplace_back(
            i, std::numeric_limits<double>::quiet_NaN());
    }
    const SampleTrace ruined = corruptedTrace(10, Rail::Disk, all_nan);
    ModelTrainer trainer;
    for (int r = 0; r < numRails; ++r)
        trainer.setTrainingTrace(static_cast<Rail>(r), ruined);
    SystemPowerEstimator est =
        SystemPowerEstimator::makeDegradableModelSet();
    EXPECT_THROW(trainer.train(est), FatalError);
}

} // namespace
} // namespace tdp
