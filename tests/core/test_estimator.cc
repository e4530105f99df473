/**
 * @file
 * Tests for the system power estimator and model serialisation.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/estimator.hh"
#include "core/serialize.hh"

#include "synthetic_trace.hh"

namespace tdp {
namespace {

SystemPowerEstimator
trainedEstimator()
{
    SystemPowerEstimator est = SystemPowerEstimator::makePaperModelSet();
    est.model(Rail::Cpu).setCoefficients({37.0, 26.45, 4.31});
    est.model(Rail::Memory).setCoefficients({27.9, 5.2e-4, 4.8e-9});
    est.model(Rail::Disk).setCoefficients({21.6, 2.5e6, 0.0, 5e3, 0.0});
    est.model(Rail::Io).setCoefficients({32.6, 3.1e7, 0.0});
    est.model(Rail::Chipset).setCoefficients({19.9});
    return est;
}

TEST(SystemPowerEstimator, PaperModelSetCoversAllRails)
{
    SystemPowerEstimator est = SystemPowerEstimator::makePaperModelSet();
    for (int r = 0; r < numRails; ++r)
        EXPECT_NO_THROW(est.model(static_cast<Rail>(r)));
    EXPECT_FALSE(est.ready());
}

TEST(SystemPowerEstimator, ReadyAfterCoefficients)
{
    const SystemPowerEstimator est = trainedEstimator();
    EXPECT_TRUE(est.ready());
}

TEST(SystemPowerEstimator, BreakdownTotalsSum)
{
    const SystemPowerEstimator est = trainedEstimator();
    SyntheticPoint pt;
    pt.activeFraction = 1.0;
    pt.uopsPerCycle = 1.0;
    const PowerBreakdown bd = est.estimate(
        EventVector::fromSample(makeSyntheticSample(pt, {})));
    double sum = 0.0;
    for (int r = 0; r < numRails; ++r)
        sum += bd.rail(static_cast<Rail>(r));
    EXPECT_NEAR(bd.total(), sum, 1e-12);
    // Plausible full-system number for a busy 4-way server.
    EXPECT_GT(bd.total(), 200.0);
    EXPECT_LT(bd.total(), 350.0);
}

TEST(SystemPowerEstimator, EstimateTraceShapes)
{
    const SystemPowerEstimator est = trainedEstimator();
    const SampleTrace trace = sweepTrace(10, [](double u, int i) {
        SyntheticPoint pt;
        pt.uopsPerCycle = u;
        return makeSyntheticSample(pt, {}, 4, i);
    });
    const auto columns = est.estimateTrace(trace);
    for (const std::vector<double> &column : columns)
        ASSERT_EQ(column.size(), 10u);
    const auto cpu_col = est.modeledColumn(trace, Rail::Cpu);
    ASSERT_EQ(cpu_col.size(), 10u);
    for (size_t i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(cpu_col[i],
                         columns[static_cast<size_t>(Rail::Cpu)][i]);
    // CPU estimate grows with the uops sweep.
    EXPECT_GT(cpu_col.back(), cpu_col.front());
}

TEST(SystemPowerEstimator, MissingModelFatal)
{
    SystemPowerEstimator est;
    EXPECT_THROW(est.model(Rail::Cpu), FatalError);
    const EventVector ev = EventVector::fromSample(
        makeSyntheticSample(SyntheticPoint{}, {}));
    EXPECT_THROW(est.estimate(ev), FatalError);
}

TEST(SystemPowerEstimator, DescribeListsTrainedModels)
{
    const SystemPowerEstimator est = trainedEstimator();
    const std::string text = est.describe();
    EXPECT_NE(text.find("P_cpu"), std::string::npos);
    EXPECT_NE(text.find("chipset"), std::string::npos);
}

TEST(Serialize, RoundTripPreservesEstimates)
{
    const SystemPowerEstimator original = trainedEstimator();
    const std::string text = saveModelsToString(original);

    SystemPowerEstimator restored =
        SystemPowerEstimator::makePaperModelSet();
    loadModelsFromString(restored, text);

    SyntheticPoint pt;
    pt.activeFraction = 0.6;
    pt.uopsPerCycle = 0.8;
    pt.busTxPerCycle = 0.01;
    pt.diskIrqPerSecond = 500.0;
    pt.deviceIrqPerSecond = 700.0;
    const EventVector ev =
        EventVector::fromSample(makeSyntheticSample(pt, {}));
    const PowerBreakdown a = original.estimate(ev);
    const PowerBreakdown b = restored.estimate(ev);
    for (int r = 0; r < numRails; ++r)
        EXPECT_DOUBLE_EQ(a.rail(static_cast<Rail>(r)),
                         b.rail(static_cast<Rail>(r)));
}

TEST(Serialize, SavingUntrainedModelFatal)
{
    const SystemPowerEstimator est =
        SystemPowerEstimator::makePaperModelSet();
    std::ostringstream os;
    EXPECT_THROW(saveModels(est, os), FatalError);
}

TEST(Serialize, MalformedInputFatal)
{
    SystemPowerEstimator est = SystemPowerEstimator::makePaperModelSet();
    EXPECT_THROW(loadModelsFromString(est, "garbage line\n"),
                 FatalError);
    EXPECT_THROW(loadModelsFromString(est, "model 99 cpu-fetch 1 2 3\n"),
                 FatalError);
    // Wrong model name for the rail.
    EXPECT_THROW(
        loadModelsFromString(est, "model 0 wrong-name 1 2 3\n"),
        FatalError);
    // Too few models.
    EXPECT_THROW(
        loadModelsFromString(est, "model 0 cpu-fetch 1 2 3\n"),
        FatalError);
}

TEST(Serialize, CommentsAndBlankLinesIgnored)
{
    const SystemPowerEstimator original = trainedEstimator();
    std::string text = "# trained models\n\n" +
                       saveModelsToString(original) + "\n# end\n";
    SystemPowerEstimator restored =
        SystemPowerEstimator::makePaperModelSet();
    EXPECT_NO_THROW(loadModelsFromString(restored, text));
    EXPECT_TRUE(restored.ready());
}

} // namespace
} // namespace tdp
