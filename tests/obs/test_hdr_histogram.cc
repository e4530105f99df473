/**
 * @file
 * Quantile-accuracy tests for the log-linear HDR histogram: every
 * estimate is checked against an exact-sort reference and must land
 * in [v, v * (1 + relativeErrorBound())], the bound the header
 * documents. Distributions cover the shapes the streaming latency
 * tracker actually sees: bimodal (fast path vs queued), heavy tail,
 * everything-in-one-bucket, and empty.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "obs/hdr_histogram.hh"

namespace tdp {
namespace obs {
namespace {

/** Deterministic 64-bit LCG (top bits), seeded per test. */
class Lcg {
  public:
    explicit Lcg(uint64_t seed) : state_(seed) {}
    uint64_t next()
    {
        state_ = state_ * 6364136223846793005ULL +
                 1442695040888963407ULL;
        return state_ >> 16;
    }

  private:
    uint64_t state_;
};

/** Exact order statistic matching quantile()'s rank definition. */
uint64_t
exactQuantile(std::vector<uint64_t> sorted, double q)
{
    const auto n = static_cast<uint64_t>(sorted.size());
    uint64_t rank =
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<uint64_t>(rank, 1, n);
    return sorted[rank - 1];
}

const double kQuantiles[] = {0.0, 0.5, 0.9, 0.99, 0.999, 1.0};

/** Record @p values and assert every quantile honours the bound. */
void
expectWithinBound(const std::vector<uint64_t> &values, int bits)
{
    HdrHistogram hist(bits);
    for (uint64_t v : values)
        hist.record(v);
    std::vector<uint64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());

    ASSERT_EQ(hist.count(), values.size());
    EXPECT_EQ(hist.max(), sorted.back());
    const double bound = hist.relativeErrorBound();
    for (double q : kQuantiles) {
        const uint64_t exact = exactQuantile(sorted, q);
        const uint64_t estimate = hist.quantile(q);
        EXPECT_GE(estimate, exact) << "q=" << q;
        EXPECT_LE(static_cast<double>(estimate),
                  static_cast<double>(exact) * (1.0 + bound))
            << "q=" << q << " exact=" << exact;
    }
}

TEST(HdrHistogram, LinearRegionIsExact)
{
    // Values below 2^bits get one bucket each: estimates are exact.
    const int bits = 5;
    HdrHistogram hist(bits);
    Lcg rng(0x11);
    std::vector<uint64_t> values;
    for (int i = 0; i < 4096; ++i)
        values.push_back(rng.next() % (uint64_t(1) << bits));
    for (uint64_t v : values)
        hist.record(v);
    std::sort(values.begin(), values.end());
    for (double q : kQuantiles)
        EXPECT_EQ(hist.quantile(q), exactQuantile(values, q))
            << "q=" << q;
}

TEST(HdrHistogram, BimodalWithinDocumentedBound)
{
    // Two latency modes three decades apart, the shape that defeats
    // a single p50/p99 pair: fast-path ticks near 100, stalled
    // drains near 100000.
    Lcg rng(0x22);
    std::vector<uint64_t> values;
    for (int i = 0; i < 10000; ++i) {
        if (i % 2 == 0)
            values.push_back(80 + rng.next() % 40);
        else
            values.push_back(90000 + rng.next() % 20000);
    }
    expectWithinBound(values, 5);
}

TEST(HdrHistogram, HeavyTailWithinDocumentedBound)
{
    // Roughly log-uniform magnitudes spanning 1 .. 2^40.
    Lcg rng(0x33);
    std::vector<uint64_t> values;
    for (int i = 0; i < 10000; ++i) {
        const int magnitude = static_cast<int>(rng.next() % 40);
        values.push_back((uint64_t(1) << magnitude) +
                         rng.next() % (uint64_t(1) << magnitude));
    }
    expectWithinBound(values, 5);
    // A coarser histogram must still honour its (wider) bound.
    expectWithinBound(values, 2);
}

TEST(HdrHistogram, SingleBucketCollapsesToTheRecordedValue)
{
    // All mass in one log-linear bucket: the estimate is clamped to
    // the recorded max, so it is exact despite the bucket width.
    HdrHistogram hist(5);
    hist.record(123456789, 1000);
    EXPECT_EQ(hist.count(), 1000u);
    EXPECT_EQ(hist.bucketsUsed(), 1u);
    for (double q : kQuantiles)
        EXPECT_EQ(hist.quantile(q), 123456789u) << "q=" << q;
}

TEST(HdrHistogram, EmptyHistogramReportsZeroes)
{
    const HdrHistogram hist(5);
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.max(), 0u);
    EXPECT_EQ(hist.bucketsUsed(), 0u);
    for (double q : kQuantiles)
        EXPECT_EQ(hist.quantile(q), 0u) << "q=" << q;
}

TEST(HdrHistogram, BucketIndexRoundTripsEveryMagnitude)
{
    // bucketHigh(indexOf(v)) is the smallest retained upper bound:
    // it must cover v, and the previous bucket must not.
    HdrHistogram hist(5);
    Lcg rng(0x44);
    for (int magnitude = 0; magnitude < 63; ++magnitude) {
        for (int i = 0; i < 8; ++i) {
            const uint64_t v = (uint64_t(1) << magnitude) +
                               rng.next() % (uint64_t(1) << magnitude);
            const size_t index = hist.indexOf(v);
            ASSERT_LT(index, hist.bucketCount());
            EXPECT_GE(hist.bucketHigh(index), v);
            if (index > 0) {
                EXPECT_LT(hist.bucketHigh(index - 1), v);
            }
        }
    }
}

TEST(HdrHistogram, MergeMatchesRecordingTheUnion)
{
    Lcg rng(0x55);
    std::vector<uint64_t> first, second, all;
    for (int i = 0; i < 2000; ++i) {
        first.push_back(1 + rng.next() % 1000);
        second.push_back(5000 + rng.next() % 100000);
    }
    HdrHistogram a(5), b(5), unionHist(5);
    for (uint64_t v : first) {
        a.record(v);
        unionHist.record(v);
        all.push_back(v);
    }
    for (uint64_t v : second) {
        b.record(v);
        unionHist.record(v);
        all.push_back(v);
    }
    a.mergeFrom(b);
    EXPECT_EQ(a.count(), unionHist.count());
    EXPECT_EQ(a.max(), unionHist.max());
    for (double q : kQuantiles)
        EXPECT_EQ(a.quantile(q), unionHist.quantile(q)) << "q=" << q;

    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.max(), 0u);
    EXPECT_EQ(a.quantile(0.99), 0u);
    EXPECT_EQ(a.bucketsUsed(), 0u);
}

TEST(HdrHistogram, MergeAcrossSubBucketBitsIsFatal)
{
    // Different sub-bucket bits mean different bucket geometries; an
    // index-wise sum would blend unrelated value ranges, so the merge
    // must refuse loudly instead of producing nonsense quantiles.
    HdrHistogram fine(6), coarse(4);
    fine.record(100);
    coarse.record(100);
    EXPECT_THROW(coarse.mergeFrom(fine), FatalError);
    try {
        coarse.mergeFrom(fine);
        FAIL() << "mergeFrom across bits did not fatal";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("subBucketBits"), std::string::npos)
            << what;
        EXPECT_NE(what.find("6-bit"), std::string::npos) << what;
        EXPECT_NE(what.find("4-bit"), std::string::npos) << what;
    }
    // The refused merge left the target untouched.
    EXPECT_EQ(coarse.count(), 1u);
    EXPECT_EQ(coarse.quantile(1.0), 100u);
}

TEST(HdrHistogram, RelativeErrorBoundTracksSubBucketBits)
{
    EXPECT_DOUBLE_EQ(HdrHistogram(1).relativeErrorBound(), 0.5);
    EXPECT_DOUBLE_EQ(HdrHistogram(5).relativeErrorBound(), 0.03125);
    EXPECT_DOUBLE_EQ(HdrHistogram(10).relativeErrorBound(),
                     1.0 / 1024.0);
}

} // namespace
} // namespace obs
} // namespace tdp
