/**
 * @file
 * Tests for the DVFS-aware CPU model extension, including an
 * end-to-end check against the simulated packages' real DVFS
 * behaviour.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/dvfs.hh"
#include "platform/server.hh"

#include "synthetic_trace.hh"

namespace tdp {
namespace {

std::unique_ptr<CpuPowerModel>
paperCpuModel()
{
    auto model = std::make_unique<CpuPowerModel>();
    model->setCoefficients({4.0 * 9.25, 26.45, 4.31});
    return model;
}

EventVector
busyEvents()
{
    SyntheticPoint pt;
    pt.activeFraction = 1.0;
    pt.uopsPerCycle = 1.5;
    return EventVector::fromSample(makeSyntheticSample(pt, {}));
}

TEST(DvfsAwareCpuModel, IdentityAtNominalFrequency)
{
    DvfsAwareCpuModel model(paperCpuModel());
    const EventVector ev = busyEvents();
    CpuPowerModel reference;
    reference.setCoefficients({4.0 * 9.25, 26.45, 4.31});
    EXPECT_NEAR(model.estimate(ev), reference.estimate(ev), 1e-9);
}

TEST(DvfsAwareCpuModel, PowerDropsWithFrequency)
{
    DvfsAwareCpuModel model(paperCpuModel());
    const EventVector ev = busyEvents();
    const Watts nominal = model.estimate(ev);
    model.setFrequencyScale(0.5);
    const Watts half = model.estimate(ev);
    EXPECT_LT(half, 0.6 * nominal);
    // Static share keeps it well above zero.
    EXPECT_GT(half, 0.25 * nominal);
}

TEST(DvfsAwareCpuModel, ScaleClamped)
{
    DvfsAwareCpuModel model(paperCpuModel());
    model.setFrequencyScale(5.0);
    EXPECT_DOUBLE_EQ(model.frequencyScale(), 1.0);
    model.setFrequencyScale(-1.0);
    EXPECT_DOUBLE_EQ(model.frequencyScale(), 0.1);
}

TEST(DvfsAwareCpuModel, CoefficientPassthrough)
{
    DvfsAwareCpuModel model(paperCpuModel());
    const auto coeffs = model.coefficients();
    ASSERT_EQ(coeffs.size(), 3u);
    EXPECT_DOUBLE_EQ(coeffs[1], 26.45);
    model.setCoefficients({10.0, 20.0, 3.0});
    EXPECT_DOUBLE_EQ(model.coefficients()[0], 10.0);
    EXPECT_TRUE(model.trained());
}

TEST(DvfsAwareCpuModel, NullBaseFatal)
{
    EXPECT_THROW(DvfsAwareCpuModel(nullptr), FatalError);
}

TEST(DvfsAwareCpuModel, TracksSimulatedDvfsEndToEnd)
{
    // Run the same workload at nominal and at 60% frequency; the
    // DVFS-corrected model must track the throttled machine far
    // better than the fixed-frequency model does.
    auto run_at = [](double scale) {
        Server server(33);
        server.runner().launchStaggered("vortex", 8, 0.5, 0.0);
        for (int i = 0; i < 4; ++i)
            server.cpus().core(i).clock().setFrequency(2.8e9 * scale);
        server.run(20.0);
        return server.rig().collect().slice(10.0, 21.0);
    };
    const SampleTrace throttled = run_at(0.6);

    DvfsAwareCpuModel model(paperCpuModel());
    model.setFrequencyScale(0.6);
    CpuPowerModel fixed;
    fixed.setCoefficients({4.0 * 9.25, 26.45, 4.31});

    // The trace path scales each column entry as estimate() does.
    const std::vector<double> column = model.estimateTrace(throttled);
    ASSERT_EQ(column.size(), throttled.size());
    double err_dvfs = 0.0, err_fixed = 0.0;
    for (size_t i = 0; i < throttled.size(); ++i) {
        const AlignedSample s = throttled.row(i);
        const EventVector ev = EventVector::fromSample(s);
        const double meas = s.measured(Rail::Cpu);
        EXPECT_EQ(column[i], model.estimate(ev)) << i;
        err_dvfs += std::abs(model.estimate(ev) - meas) / meas;
        err_fixed += std::abs(fixed.estimate(ev) - meas) / meas;
    }
    err_dvfs /= static_cast<double>(throttled.size());
    err_fixed /= static_cast<double>(throttled.size());
    EXPECT_LT(err_dvfs, 0.10);
    EXPECT_GT(err_fixed, 3.0 * err_dvfs);
}

TEST(DvfsAwareCpuModel, DescribeMentionsScale)
{
    DvfsAwareCpuModel model(paperCpuModel());
    model.setFrequencyScale(0.7);
    EXPECT_NE(model.describe().find("0.70"), std::string::npos);
}

} // namespace
} // namespace tdp
