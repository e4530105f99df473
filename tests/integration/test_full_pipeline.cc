/**
 * @file
 * End-to-end integration tests: the paper's full methodology - run
 * instrumented workloads, train the five models on their training
 * traces, validate on unseen runs - must land within the paper's
 * error envelope.
 */

#include <gtest/gtest.h>

#include "core/trainer.hh"
#include "core/validator.hh"
#include "platform/server.hh"
#include "stats/metrics.hh"

namespace tdp {
namespace {

/** Run one workload and return the aligned trace. */
SampleTrace
runWorkload(const std::string &name, int instances, Seconds stagger,
            Seconds duration, uint64_t seed, Seconds skip = 0.0)
{
    Server server(seed);
    if (instances > 0)
        server.runner().launchStaggered(name, instances, 1.0, stagger);
    server.run(duration);
    const SampleTrace &trace = server.rig().collect();
    return skip > 0.0 ? trace.slice(skip, duration + 1.0) : trace;
}

/** Shared trained estimator (expensive; built once). */
const SystemPowerEstimator &
estimator()
{
    static const SystemPowerEstimator est = [] {
        SystemPowerEstimator e =
            SystemPowerEstimator::makePaperModelSet();
        ModelTrainer trainer;
        trainer.setTrainingTrace(
            Rail::Cpu, runWorkload("gcc", 8, 30.0, 280.0, 0xAA));
        trainer.setTrainingTrace(
            Rail::Memory, runWorkload("mcf", 8, 30.0, 280.0, 0xBB));
        const SampleTrace diskload =
            runWorkload("diskload", 8, 5.0, 160.0, 0xCC);
        trainer.setTrainingTrace(Rail::Disk, diskload);
        trainer.setTrainingTrace(Rail::Io, diskload);
        trainer.setTrainingTrace(
            Rail::Chipset, runWorkload("idle", 0, 0.0, 60.0, 0xDD));
        EXPECT_TRUE(trainer.complete());
        trainer.train(e);
        return e;
    }();
    return est;
}

TEST(FullPipeline, EstimatorTrainsToReadiness)
{
    EXPECT_TRUE(estimator().ready());
}

TEST(FullPipeline, CpuModelCoefficientsNearGroundTruth)
{
    const auto coeffs =
        estimator().model(Rail::Cpu).coefficients();
    ASSERT_EQ(coeffs.size(), 3u);
    // Intercept ~ 4 x 9.25 (idle per package); active ~ 26.45; the
    // uop coefficient absorbs gcc's speculation overhead so it sits
    // a little above the true 4.31.
    EXPECT_NEAR(coeffs[0], 37.0, 3.0);
    EXPECT_NEAR(coeffs[1], 26.45, 3.0);
    EXPECT_NEAR(coeffs[2], 4.31, 2.0);
}

TEST(FullPipeline, ValidationWithinPaperEnvelope)
{
    Validator validator(estimator(), 0.0);

    struct Expectation
    {
        const char *workload;
        Rail rail;
        double max_error;
    };
    // Bounds are ~1.5x the paper's reported errors: the claim under
    // test is the envelope ("average error below 9-15% per rail"),
    // not the exact decimals.
    const Expectation cases[] = {
        {"vortex", Rail::Cpu, 0.10},
        {"vortex", Rail::Memory, 0.10},
        {"mesa", Rail::Cpu, 0.08},
        {"mesa", Rail::Io, 0.02},
        {"mesa", Rail::Disk, 0.02},
        {"specjbb", Rail::Cpu, 0.12},
        {"specjbb", Rail::Memory, 0.12},
    };
    for (const Expectation &e : cases) {
        const SampleTrace trace =
            runWorkload(e.workload, 8, 0.0, 120.0, 0x11, 30.0);
        const auto result = validator.validate(e.workload, trace);
        EXPECT_LT(result.error(e.rail), e.max_error)
            << e.workload << " / " << railName(e.rail);
    }
}

TEST(FullPipeline, McfCpuErrorIsTheWorst)
{
    // The paper's signature result: the fetch-based CPU model
    // underestimates mcf (speculative stall power), making it the
    // worst CPU-model workload.
    Validator validator(estimator(), 0.0);
    const auto mcf = validator.validate(
        "mcf", runWorkload("mcf", 8, 0.0, 120.0, 0x12, 30.0));
    const auto vortex = validator.validate(
        "vortex", runWorkload("vortex", 8, 0.0, 120.0, 0x12, 30.0));
    EXPECT_GT(mcf.error(Rail::Cpu), vortex.error(Rail::Cpu));
    EXPECT_GT(mcf.error(Rail::Cpu), 0.05);
    EXPECT_LT(mcf.error(Rail::Cpu), 0.20);
}

TEST(FullPipeline, MemoryModelHoldsOnMcfButL3ModelFails)
{
    // Section 4.2.2 end-to-end: on the mcf ramp the bus-transaction
    // model stays accurate while an L3-miss model trained on mesa
    // underestimates.
    auto l3 = makeMemoryL3Model();
    l3->train(runWorkload("mesa", 8, 30.0, 280.0, 0xEE));

    const SampleTrace mcf_trace =
        runWorkload("mcf", 8, 30.0, 280.0, 0x13);
    std::vector<double> l3_modeled, bus_modeled, measured;
    const SubsystemModel &bus_model = estimator().model(Rail::Memory);
    for (const AlignedSample &s : mcf_trace.rows()) {
        const EventVector ev = EventVector::fromSample(s);
        l3_modeled.push_back(l3->estimate(ev));
        bus_modeled.push_back(bus_model.estimate(ev));
        measured.push_back(s.measured(Rail::Memory));
    }
    const double l3_err = averageError(l3_modeled, measured);
    const double bus_err = averageError(bus_modeled, measured);
    EXPECT_GT(l3_err, 2.0 * bus_err);
    EXPECT_LT(bus_err, 0.05);
}

TEST(FullPipeline, TotalSystemPowerWithinFivePercent)
{
    // The headline capability: complete-system power from counters
    // alone.
    Validator validator(estimator(), 0.0);
    for (const char *workload : {"specjbb", "wupwise"}) {
        const SampleTrace trace =
            runWorkload(workload, 8, 0.0, 120.0, 0x14, 30.0);
        double measured_total = 0.0, modeled_total = 0.0;
        for (const AlignedSample &s : trace.rows()) {
            for (int r = 0; r < numRails; ++r)
                measured_total += s.measured(static_cast<Rail>(r));
            modeled_total +=
                estimator()
                    .estimate(EventVector::fromSample(s))
                    .total();
        }
        EXPECT_NEAR(modeled_total / measured_total, 1.0, 0.05)
            << workload;
    }
}

} // namespace
} // namespace tdp
