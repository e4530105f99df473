/**
 * @file
 * Oracle tests of rail-major trace estimation.
 *
 * SystemPowerEstimator::estimateTrace() and modeledColumn() evaluate
 * each rung's column once from one rate table and walk the fallback
 * chains per sample on those values. The oracle is the per-sample
 * walk: estimateRail() on EventVector::fromSample() of every row, in
 * sample-major order. Every modeled value must match it bit for bit,
 * and so must the health report (counts, and the reasons in their
 * order under the eight-per-rail cap), on clean traces, on grid rows
 * whose primaries are untrained, on NaN-masked PMU traces, and up to
 * the fatal() of a zero-cycle sample.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/trainer.hh"
#include "exp/experiment_pool.hh"
#include "platform/server.hh"

namespace tdp {
namespace {

using Columns = std::array<std::vector<double>, numRails>;
using MakeEstimator = std::function<SystemPowerEstimator()>;

uint64_t
bitsOf(double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/**
 * A @p seconds run of @p instances x @p workload ("idle": none), from
 * @p skip seconds on.
 */
SampleTrace
serverTrace(const std::string &workload, uint64_t seed, double seconds,
            double skip = 0.0, const FaultPlan &faults = FaultPlan{},
            int instances = 8)
{
    Server::Params params;
    params.rig.faults = faults;
    Server server(seed, params);
    if (workload != "idle")
        server.runner().launchStaggered(workload, instances, 0.5, 0.0);
    return server.runAndCollect(seconds).slice(skip, seconds + 1.0);
}

/** @p set trained by ModelTrainer on @p trace for every rail. */
SystemPowerEstimator
trainedOn(SystemPowerEstimator set, const SampleTrace &trace)
{
    ModelTrainer trainer;
    for (int r = 0; r < numRails; ++r)
        trainer.setTrainingTrace(static_cast<Rail>(r), trace);
    trainer.train(set);
    return set;
}

/** The oracle: sample-major estimateRail() over each row's vector. */
Columns
perSampleWalk(const SystemPowerEstimator &est, const SampleTrace &trace)
{
    Columns out;
    for (size_t i = 0; i < trace.size(); ++i) {
        const EventVector events = EventVector::fromSample(trace.row(i));
        for (int r = 0; r < numRails; ++r)
            out[static_cast<size_t>(r)].push_back(
                est.estimateRail(events, static_cast<Rail>(r)));
    }
    return out;
}

void
expectSameBits(const std::vector<double> &got,
               const std::vector<double> &want, Rail rail)
{
    ASSERT_EQ(got.size(), want.size()) << railName(rail);
    for (size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(bitsOf(got[i]), bitsOf(want[i]))
            << railName(rail) << " sample " << i;
}

void
expectSameRailHealth(const RailHealth &got, const RailHealth &want)
{
    EXPECT_EQ(got.rungUses, want.rungUses) << want.rail;
    EXPECT_EQ(got.estimates, want.estimates) << want.rail;
    EXPECT_EQ(got.degraded, want.degraded) << want.rail;
    EXPECT_EQ(got.unestimable, want.unestimable) << want.rail;
    EXPECT_EQ(got.reasons, want.reasons) << want.rail;
}

/**
 * estimateTrace() on one estimator, the oracle on another, and each
 * rail's modeledColumn() on a third: all built by @p make, all
 * trained alike. Returns the oracle's health.
 */
HealthReport
expectMatchesOracle(const MakeEstimator &make, const SampleTrace &trace)
{
    const SystemPowerEstimator batch = make();
    const SystemPowerEstimator oracle = make();
    const Columns got = batch.estimateTrace(trace);
    const Columns want = perSampleWalk(oracle, trace);
    for (int r = 0; r < numRails; ++r)
        expectSameBits(got[static_cast<size_t>(r)],
                       want[static_cast<size_t>(r)], static_cast<Rail>(r));
    EXPECT_EQ(batch.health().describe(), oracle.health().describe());

    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        const SystemPowerEstimator single = make();
        expectSameBits(single.modeledColumn(trace, rail),
                       want[static_cast<size_t>(r)], rail);
        expectSameRailHealth(single.health().rails[static_cast<size_t>(r)],
                             oracle.health().rails[static_cast<size_t>(r)]);
    }
    return oracle.health();
}

const SampleTrace &
diskloadTrace()
{
    static const SampleTrace trace = serverTrace("diskload", 0x60D1, 20.0);
    return trace;
}

const SampleTrace &
gccTrace()
{
    // Past the ramp the eight copies saturate every CPU, so the CPU
    // fit has no variation to train on (as in the model grid).
    static const SampleTrace trace = serverTrace("gcc", 0x6CC, 60.0, 30.0);
    return trace;
}

const SampleTrace &
idleTrace()
{
    static const SampleTrace trace = serverTrace("idle", 0x1D1E, 30.0);
    return trace;
}

const SampleTrace &
mcfTrace()
{
    static const SampleTrace trace = serverTrace("mcf", 0x3CF, 30.0);
    return trace;
}

TEST(EstimateTrace, PaperSetMatchesPerSampleWalk)
{
    const MakeEstimator make = [] {
        return trainedOn(SystemPowerEstimator::makePaperModelSet(),
                         diskloadTrace());
    };
    ASSERT_TRUE(make().ready());
    for (const SampleTrace *trace : {&gccTrace(), &mcfTrace(), &idleTrace()})
        EXPECT_FALSE(expectMatchesOracle(make, *trace).degraded());
}

TEST(EstimateTrace, DegradableSetOnIdleLeavesDiskUntrained)
{
    const MakeEstimator make = [] {
        return trainedOn(SystemPowerEstimator::makeDegradableModelSet(),
                         idleTrace());
    };
    ASSERT_FALSE(make().model(Rail::Disk).trained());
    const HealthReport health = expectMatchesOracle(make, mcfTrace());
    const RailHealth &disk = health.rails[static_cast<size_t>(Rail::Disk)];
    EXPECT_EQ(disk.degraded, disk.estimates);
    EXPECT_EQ(disk.reasons, std::vector<std::string>{
                                "disk-irq-dma -> Disk-const: untrained"});
}

TEST(EstimateTrace, DegradableSetOnGccLeavesCpuAndDiskUntrained)
{
    const MakeEstimator make = [] {
        return trainedOn(SystemPowerEstimator::makeDegradableModelSet(),
                         gccTrace());
    };
    ASSERT_FALSE(make().model(Rail::Cpu).trained());
    ASSERT_FALSE(make().model(Rail::Disk).trained());
    for (const SampleTrace *trace : {&diskloadTrace(), &idleTrace()}) {
        const HealthReport health = expectMatchesOracle(make, *trace);
        EXPECT_EQ(health.rails[static_cast<size_t>(Rail::Cpu)].degraded,
                  trace->size());
    }
}

/**
 * Rows of nine gcc runs whose PMUs could not schedule the bus event
 * plus one more event each (none for the ninth), interleaved so the
 * NaN-masked rate set changes from sample to sample.
 */
SampleTrace
maskedTrace()
{
    const PerfEvent second[] = {
        PerfEvent::HaltedCycles,        PerfEvent::FetchedUops,
        PerfEvent::L3LoadMisses,        PerfEvent::TlbMisses,
        PerfEvent::DmaOtherAccesses,    PerfEvent::PrefetchTransactions,
        PerfEvent::UncacheableAccesses, PerfEvent::InterruptsServiced};
    std::vector<SampleTrace> runs;
    for (size_t k = 0; k < 9; ++k) {
        FaultPlan plan;
        plan.unavailableEvents = {PerfEvent::BusTransactions};
        if (k < 8)
            plan.unavailableEvents.push_back(second[k]);
        runs.push_back(serverTrace("gcc", 900 + k, 12.0, 0.0, plan, 2));
    }
    SampleTrace trace;
    for (size_t i = 0; i < runs.front().size(); ++i)
        for (const SampleTrace &run : runs)
            if (i < run.size())
                trace.add(run.row(i));
    return trace;
}

TEST(EstimateTrace, MaskedEventsMatchPerSampleWalkPastTheReasonCap)
{
    const SampleTrace trace = maskedTrace();
    const MakeEstimator make = [] {
        return trainedOn(SystemPowerEstimator::makeDegradableModelSet(),
                         diskloadTrace());
    };
    ASSERT_TRUE(make().ready());
    const HealthReport health = expectMatchesOracle(make, trace);

    // The trace really has per-sample masks and more distinct reasons
    // than the cap keeps: count them with no cap, sample by sample.
    SystemPowerEstimator probe = make();
    std::set<std::string> distinct;
    for (const AlignedSample &sample : trace.rows()) {
        probe.resetHealth();
        probe.estimateRail(EventVector::fromSample(sample), Rail::Memory);
        const HealthReport one = probe.health();
        for (const std::string &reason :
             one.rails[static_cast<size_t>(Rail::Memory)].reasons)
            distinct.insert(reason);
    }
    EXPECT_GT(distinct.size(), 8u);
    const RailHealth &memory =
        health.rails[static_cast<size_t>(Rail::Memory)];
    EXPECT_EQ(memory.reasons.size(), 8u);
    EXPECT_GT(memory.degraded, 0u);
}

TEST(EstimateTrace, OverflowingRateIsMaskedLikeTheEventVector)
{
    // One anomaly per trace, so each alone decides the all-finite
    // shortcut: a huge bus count overflows bus transactions per
    // Mcycle to inf; a sub-cycle count overflows every per-cycle rate
    // of its CPU; a huge TLB count stays finite. None may take the
    // shortcut, and each sample must get the event vector's mask.
    const auto with = [](const std::function<void(AlignedSample &)> &edit) {
        std::vector<AlignedSample> rows = mcfTrace().rows();
        edit(rows[3]);
        SampleTrace trace;
        for (const AlignedSample &row : rows)
            trace.add(row);
        return trace;
    };
    const MakeEstimator make = [] {
        return trainedOn(SystemPowerEstimator::makeDegradableModelSet(),
                         diskloadTrace());
    };
    const SampleTrace huge_bus = with([](AlignedSample &s) {
        s.perCpu[2][PerfEvent::Cycles] = 1e-3;
        s.perCpu[2][PerfEvent::BusTransactions] = 1e306;
    });
    const SampleTrace sub_cycle = with(
        [](AlignedSample &s) { s.perCpu[1][PerfEvent::Cycles] = 1e-300; });
    const SampleTrace huge_tlb = with(
        [](AlignedSample &s) { s.perCpu[0][PerfEvent::TlbMisses] = 1e305; });
    for (const SampleTrace *trace : {&huge_bus, &sub_cycle}) {
        const HealthReport health = expectMatchesOracle(make, *trace);
        const RailHealth &memory =
            health.rails[static_cast<size_t>(Rail::Memory)];
        ASSERT_FALSE(memory.reasons.empty());
        EXPECT_NE(memory.reasons.front().find("busTxPerMcycle"),
                  std::string::npos)
            << memory.reasons.front();
    }
    EXPECT_FALSE(expectMatchesOracle(make, huge_tlb).degraded());
}

/** The message of the exception @p fn throws, or "" if none. */
template <typename Error>
std::string
thrownMessage(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const Error &e) {
        return e.what();
    }
    return "";
}

TEST(EstimateTrace, ZeroCycleSampleFailsAfterTheSamplesBeforeIt)
{
    std::vector<AlignedSample> rows = gccTrace().rows();
    rows[7].perCpu[1][PerfEvent::Cycles] = 0.0;
    SampleTrace trace;
    for (const AlignedSample &row : rows)
        trace.add(row);
    const MakeEstimator make = [] {
        return trainedOn(SystemPowerEstimator::makeDegradableModelSet(),
                         gccTrace());
    };

    const SystemPowerEstimator batch = make();
    const SystemPowerEstimator oracle = make();
    const std::string got = thrownMessage<FatalError>(
        [&] { batch.estimateTrace(trace); });
    const std::string want = thrownMessage<FatalError>(
        [&] { perSampleWalk(oracle, trace); });
    EXPECT_NE(want.find("zero cycles on cpu 1"), std::string::npos)
        << want;
    EXPECT_EQ(got, want);
    EXPECT_EQ(batch.health().describe(), oracle.health().describe());
    EXPECT_EQ(oracle.health().rails[0].estimates, 7u);

    const SystemPowerEstimator single = make();
    EXPECT_EQ(thrownMessage<FatalError>(
                  [&] { single.modeledColumn(trace, Rail::Memory); }),
              want);
    expectSameRailHealth(
        single.health().rails[static_cast<size_t>(Rail::Memory)],
        oracle.health().rails[static_cast<size_t>(Rail::Memory)]);
}

TEST(EstimateTrace, RailThatCannotEstimateFailsAtTheFirstSample)
{
    // An untrained single-model rail panics and a missing rail is
    // fatal on the first sample, after the rails before it estimated
    // that sample, exactly as the per-sample walk fails.
    const auto untrained_io = [] {
        SystemPowerEstimator est = trainedOn(
            SystemPowerEstimator::makePaperModelSet(), diskloadTrace());
        est.setModel(makeIoInterruptModel());
        return est;
    };
    {
        const SystemPowerEstimator batch = untrained_io();
        const SystemPowerEstimator oracle = untrained_io();
        const std::string want = thrownMessage<PanicError>(
            [&] { perSampleWalk(oracle, mcfTrace()); });
        EXPECT_FALSE(want.empty());
        EXPECT_EQ(thrownMessage<PanicError>(
                      [&] { batch.estimateTrace(mcfTrace()); }),
                  want);
        EXPECT_EQ(batch.health().describe(), oracle.health().describe());
        EXPECT_EQ(oracle.health().rails[0].estimates, 1u);
    }
    {
        SystemPowerEstimator batch;
        SystemPowerEstimator oracle;
        for (SystemPowerEstimator *est : {&batch, &oracle}) {
            est->setModel(std::make_unique<ConstantPowerModel>(Rail::Cpu));
            est->model(Rail::Cpu).setCoefficients({40.0});
        }
        const std::string want = thrownMessage<FatalError>(
            [&] { perSampleWalk(oracle, mcfTrace()); });
        EXPECT_NE(want.find("no model installed for rail"),
                  std::string::npos)
            << want;
        EXPECT_EQ(thrownMessage<FatalError>(
                      [&] { batch.estimateTrace(mcfTrace()); }),
                  want);
        EXPECT_EQ(batch.health().describe(), oracle.health().describe());
    }
}

TEST(EstimateTrace, SharedTraceAcrossWorkers)
{
    // One const trace read by four workers at once, each with its own
    // estimator and so its own rate table and health: every worker
    // gets the serial columns and health.
    const SampleTrace &trace = mcfTrace();
    const MakeEstimator make = [] {
        return trainedOn(SystemPowerEstimator::makeDegradableModelSet(),
                         gccTrace());
    };
    const SystemPowerEstimator serial = make();
    const Columns want = serial.estimateTrace(trace);
    std::vector<SystemPowerEstimator> workers;
    for (int w = 0; w < 4; ++w)
        workers.push_back(make());
    const ExperimentPool pool(4);
    const std::vector<Columns> got = pool.map<Columns>(
        workers.size(),
        [&](size_t w) { return workers[w].estimateTrace(trace); });
    for (size_t w = 0; w < workers.size(); ++w) {
        for (int r = 0; r < numRails; ++r)
            expectSameBits(got[w][static_cast<size_t>(r)],
                           want[static_cast<size_t>(r)],
                           static_cast<Rail>(r));
        EXPECT_EQ(workers[w].health().describe(),
                  serial.health().describe());
    }
}

TEST(EstimateTrace, EmptyTraceEstimatesNothing)
{
    const SystemPowerEstimator est = SystemPowerEstimator();
    for (const std::vector<double> &column : est.estimateTrace(SampleTrace()))
        EXPECT_TRUE(column.empty());
}

} // namespace
} // namespace tdp
