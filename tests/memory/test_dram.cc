/**
 * @file
 * Tests for the DRAM module power model, including the invariants the
 * paper's memory models depend on (monotonicity in traffic, locality
 * and mix sensitivity, superlinear bank-overlap term).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "memory/dram.hh"

namespace tdp {
namespace {

DramModule::Params
params()
{
    return DramModule::Params{};
}

TEST(DramModule, IdlePowerIsBackground)
{
    DramModule dimm(params());
    const Watts idle = dimm.advance(0.0, 0.0, 0.5, 1e-3);
    EXPECT_DOUBLE_EQ(idle, params().backgroundPower);
    EXPECT_DOUBLE_EQ(dimm.lastActiveFraction(), 0.0);
}

TEST(DramModule, PowerMonotonicInTraffic)
{
    DramModule dimm(params());
    Watts prev = 0.0;
    for (double accesses : {0.0, 1e3, 5e3, 1e4, 2e4}) {
        const Watts p = dimm.advance(accesses, accesses * 0.3, 0.6, 1e-3);
        EXPECT_GT(p, prev - 1e-12);
        prev = p;
    }
}

TEST(DramModule, WritesCostMoreThanReads)
{
    DramModule a(params()), b(params());
    const Watts reads = a.advance(1e4, 0.0, 0.6, 1e-3);
    const Watts writes = b.advance(0.0, 1e4, 0.6, 1e-3);
    EXPECT_GT(writes, reads);
}

TEST(DramModule, LowerPageHitRateCostsMore)
{
    DramModule a(params()), b(params());
    const Watts local = a.advance(1e4, 3e3, 0.9, 1e-3);
    const Watts thrash = b.advance(1e4, 3e3, 0.2, 1e-3);
    EXPECT_GT(thrash, local);
}

TEST(DramModule, ActiveFractionSaturatesAtOne)
{
    DramModule dimm(params());
    dimm.advance(1e9, 0.0, 0.5, 1e-3);
    EXPECT_DOUBLE_EQ(dimm.lastActiveFraction(), 1.0);
}

TEST(DramModule, ActivationCountFollowsHitRate)
{
    DramModule dimm(params());
    dimm.advance(1000.0, 0.0, 0.75, 1e-3);
    EXPECT_NEAR(dimm.lifetimeActivations(), 250.0, 1e-9);
    dimm.advance(1000.0, 0.0, 1.0, 1e-3);
    EXPECT_NEAR(dimm.lifetimeActivations(), 250.0, 1e-9);
}

TEST(DramModule, LifetimeCountsAccumulate)
{
    DramModule dimm(params());
    dimm.advance(100.0, 50.0, 0.5, 1e-3);
    dimm.advance(200.0, 25.0, 0.5, 1e-3);
    EXPECT_DOUBLE_EQ(dimm.lifetimeReads(), 300.0);
    EXPECT_DOUBLE_EQ(dimm.lifetimeWrites(), 75.0);
}

TEST(DramModule, SuperlinearAtHighUtilization)
{
    // The bank-overlap term makes power superlinear in traffic near
    // saturation: P(2x) > 2*P(x) - P(0) fails for a purely linear
    // model but the quadratic term must push it above linearity in
    // the residency regime.
    DramModule a(params()), b(params()), c(params());
    const double x = 8000.0; // ~half busy at 60 ns per access, 1 ms
    const Watts p0 = a.advance(0.0, 0.0, 0.6, 1e-3);
    const Watts p1 = b.advance(x, 0.0, 0.6, 1e-3);
    const Watts p2 = c.advance(2.0 * x, 0.0, 0.6, 1e-3);
    const double linear_extrapolation = p0 + 2.0 * (p1 - p0);
    EXPECT_GT(p2, linear_extrapolation);
}

TEST(DramModule, HitRateClamped)
{
    DramModule dimm(params());
    EXPECT_NO_THROW(dimm.advance(10.0, 0.0, 1.5, 1e-3));
    EXPECT_NO_THROW(dimm.advance(10.0, 0.0, -0.2, 1e-3));
}

TEST(DramModule, NegativeInputsPanic)
{
    DramModule dimm(params());
    EXPECT_THROW(dimm.advance(-1.0, 0.0, 0.5, 1e-3), PanicError);
    EXPECT_THROW(dimm.advance(0.0, -1.0, 0.5, 1e-3), PanicError);
    EXPECT_THROW(dimm.advance(1.0, 1.0, 0.5, 0.0), PanicError);
}

/** Property sweep: energy accounting is rate-invariant. */
class DramRateSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(DramRateSweep, AveragePowerIndependentOfQuantumLength)
{
    // The same traffic rate must produce the same average power
    // whether delivered in 1 ms or 10 ms quanta (residency below
    // saturation).
    const double rate = GetParam(); // accesses per second
    DramModule fine(params()), coarse(params());
    const Watts p_fine = fine.advance(rate * 1e-3, 0.0, 0.6, 1e-3);
    const Watts p_coarse = coarse.advance(rate * 1e-2, 0.0, 0.6, 1e-2);
    EXPECT_NEAR(p_fine, p_coarse, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Rates, DramRateSweep,
                         ::testing::Values(1e5, 1e6, 5e6, 1e7));

TEST(DramBank, MatchesIndependentModulesBitwise)
{
    // A DramBank must be indistinguishable from stepping N
    // standalone modules with the same shared traffic: same power
    // every quantum, same lifetime accumulators per DIMM.
    constexpr size_t kDimms = 6;
    DramBank bank(params(), kDimms);
    std::vector<DramModule> reference(kDimms, DramModule(params()));

    const struct
    {
        double reads, writes, hit_rate, dt;
    } schedule[] = {
        {0.0, 0.0, 0.5, 1e-3},    {1e3, 3e2, 0.8, 1e-3},
        {5e3, 5e3, 0.2, 2e-3},    {1e4, 0.0, 1.0, 5e-4},
        {0.0, 2e3, 0.0, 1e-3},    {7e3, 1e3, 0.65, 1e-2},
    };
    for (const auto &q : schedule) {
        const Watts bank_power =
            bank.advanceShared(q.reads, q.writes, q.hit_rate, q.dt);
        for (size_t d = 0; d < kDimms; ++d) {
            const Watts module_power = reference[d].advance(
                q.reads, q.writes, q.hit_rate, q.dt);
            EXPECT_DOUBLE_EQ(bank_power, module_power);
        }
    }
    for (size_t d = 0; d < kDimms; ++d) {
        EXPECT_DOUBLE_EQ(bank.lifetimeReads(d),
                         reference[d].lifetimeReads());
        EXPECT_DOUBLE_EQ(bank.lifetimeWrites(d),
                         reference[d].lifetimeWrites());
        EXPECT_DOUBLE_EQ(bank.lifetimeActivations(d),
                         reference[d].lifetimeActivations());
        EXPECT_DOUBLE_EQ(bank.lastActiveFraction(d),
                         reference[d].lastActiveFraction());
    }
}

TEST(DramBank, SizeAndValidation)
{
    DramBank bank(params(), 4);
    EXPECT_EQ(bank.size(), 4u);
    EXPECT_THROW(bank.advanceShared(-1.0, 0.0, 0.5, 1e-3),
                 PanicError);
    EXPECT_THROW(bank.advanceShared(0.0, 0.0, 0.5, 0.0), PanicError);
}

} // namespace
} // namespace tdp
