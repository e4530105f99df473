/**
 * @file
 * Tests for the rail sensing chain.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/running_stats.hh"
#include "measure/rail.hh"

namespace tdp {
namespace {

RailChannel::Params
quietParams()
{
    RailChannel::Params p;
    p.adcNoiseSigma = 0.0;
    p.biasWanderSigma = 0.0;
    p.quantizationStep = 0.0;
    p.filterTau = 4e-3;
    return p;
}

TEST(RailChannel, PrimesToFirstValue)
{
    double truth = 50.0;
    RailChannel rail("r", [&] { return truth; }, quietParams(), Rng(1));
    EXPECT_NEAR(rail.sampleAverage(1e-3, 10), 50.0, 1e-9);
}

TEST(RailChannel, RcFilterSmoothsSteps)
{
    double truth = 10.0;
    RailChannel rail("r", [&] { return truth; }, quietParams(), Rng(1));
    rail.sampleAverage(1e-3, 10);
    truth = 20.0;
    const double after_one = rail.sampleAverage(1e-3, 10);
    // One 1 ms step against a 4 ms tau: ~22% of the way.
    EXPECT_GT(after_one, 11.0);
    EXPECT_LT(after_one, 14.0);
    // Converges eventually.
    for (int i = 0; i < 50; ++i)
        rail.sampleAverage(1e-3, 10);
    EXPECT_NEAR(rail.filteredPower(), 20.0, 0.01);
}

TEST(RailChannel, AveragingReducesNoise)
{
    RailChannel::Params noisy = quietParams();
    noisy.adcNoiseSigma = 2.0;
    RailChannel one("one", [] { return 30.0; }, noisy, Rng(2));
    RailChannel many("many", [] { return 30.0; }, noisy, Rng(3));
    RunningStats s1, s100;
    for (int i = 0; i < 4000; ++i) {
        s1.add(one.sampleAverage(1e-3, 1));
        s100.add(many.sampleAverage(1e-3, 100));
    }
    EXPECT_NEAR(s1.stddev(), 2.0, 0.15);
    EXPECT_NEAR(s100.stddev(), 0.2, 0.03);
}

TEST(RailChannel, QuantizationSnapsValues)
{
    RailChannel::Params p = quietParams();
    p.quantizationStep = 0.5;
    RailChannel rail("r", [] { return 10.3; }, p, Rng(4));
    EXPECT_DOUBLE_EQ(rail.sampleAverage(1e-3, 10), 10.5);
}

TEST(RailChannel, BiasWanderIsBoundedInDistribution)
{
    RailChannel::Params p = quietParams();
    p.biasWanderSigma = 0.1;
    p.biasWanderTau = 1.0;
    RailChannel rail("r", [] { return 25.0; }, p, Rng(5));
    RunningStats s;
    for (int i = 0; i < 20000; ++i)
        s.add(rail.sampleAverage(1e-3, 10));
    EXPECT_NEAR(s.mean(), 25.0, 0.05);
    // OU stationary sigma is the configured wander sigma.
    EXPECT_NEAR(s.stddev(), 0.1, 0.05);
}

/**
 * The sensing chain written out with every per-call term evaluated
 * inline, as the formulas read: the reference the channel's cached
 * invariants must reproduce bit for bit.
 */
class InlineChain
{
  public:
    InlineChain(const RailChannel::Params &p, Rng rng)
        : p_(p), rng_(rng)
    {
    }

    double
    sample(double truth, double dt, int conversions)
    {
        if (!primed_) {
            filtered_ = truth;
            primed_ = true;
        } else {
            const double alpha =
                1.0 - std::exp(-dt / std::max(1e-6, p_.filterTau));
            filtered_ += (truth - filtered_) * alpha;
        }
        if (p_.biasWanderSigma > 0.0) {
            const double tau = std::max(1e-3, p_.biasWanderTau);
            bias_ += -bias_ * dt / tau +
                     p_.biasWanderSigma * std::sqrt(2.0 * dt / tau) *
                         rng_.gaussian();
        }
        const double sigma =
            p_.adcNoiseSigma / std::sqrt(static_cast<double>(conversions));
        double value = filtered_ + bias_ + rng_.gaussian(0.0, sigma);
        if (p_.quantizationStep > 0.0) {
            value = std::round(value / p_.quantizationStep) *
                    p_.quantizationStep;
        }
        return value;
    }

  private:
    RailChannel::Params p_;
    Rng rng_;
    double filtered_ = 0.0;
    double bias_ = 0.0;
    bool primed_ = false;
};

/**
 * Drive a channel and its inline reference through dt and conversion
 * switches and require bit-identical readings.
 */
void
expectMatchesInlineChain(const RailChannel::Params &p, double truth_base)
{
    // dt 1 ms -> 0.5 ms -> 1 ms, then the conversion count changes
    // at a fixed dt: every switch must refresh the cached terms.
    const std::vector<std::pair<double, int>> segments = {
        {1e-3, 10}, {5e-4, 5}, {1e-3, 10}, {1e-3, 3}, {1e-3, 10}};

    double truth = truth_base;
    RailChannel rail("r", [&] { return truth; }, p, Rng(11));
    InlineChain ref(p, Rng(11));
    for (const auto &[dt, conversions] : segments) {
        for (int i = 0; i < 200; ++i) {
            truth = truth_base * (1.0 + 0.001 * (i % 37));
            const double got = rail.sampleAverage(dt, conversions);
            const double want = ref.sample(truth, dt, conversions);
            ASSERT_EQ(got, want) << "dt " << dt << " conversions "
                                 << conversions << " step " << i;
        }
    }
}

TEST(RailChannel, CachedTermsMatchInlineFormulasBitForBit)
{
    RailChannel::Params p;
    p.biasWanderSigma = 0.3;
    // Unquantised so no rounding can hide a last-bit difference.
    p.quantizationStep = 0.0;
    expectMatchesInlineChain(p, 40.0);

    // Bias alone: zero truth and no ADC noise make the reading the
    // bias itself, and a short tau makes the decay term as large as
    // the bias, so the decay's last bit reaches the reading.
    p.adcNoiseSigma = 0.0;
    p.biasWanderTau = 3e-3;
    expectMatchesInlineChain(p, 0.0);
}

TEST(RailChannel, NullProviderFatal)
{
    EXPECT_THROW(
        RailChannel("r", nullptr, quietParams(), Rng(1)), FatalError);
}

TEST(RailChannel, BadSamplingRequestPanics)
{
    RailChannel rail("r", [] { return 1.0; }, quietParams(), Rng(1));
    EXPECT_THROW(rail.sampleAverage(0.0, 10), PanicError);
    EXPECT_THROW(rail.sampleAverage(1e-3, 0), PanicError);
}

TEST(Rail, NamesDistinct)
{
    for (int a = 0; a < numRails; ++a)
        for (int b = a + 1; b < numRails; ++b)
            EXPECT_STRNE(railName(static_cast<Rail>(a)),
                         railName(static_cast<Rail>(b)));
}

} // namespace
} // namespace tdp
