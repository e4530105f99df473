/**
 * @file
 * Columnar SampleTrace: the CPU count is fixed per trace, rows
 * rebuild exactly what was added, and a const trace is safe to read
 * from several threads at once (it holds no lazily built state).
 */

#include <cstring>

#include <gtest/gtest.h>

#include "../core/synthetic_trace.hh"
#include "common/logging.hh"
#include "core/validator.hh"
#include "exp/experiment_pool.hh"
#include "measure/trace_io.hh"

namespace tdp {
namespace {

/** A paper-shaped synthetic trace of @p samples 4-CPU samples. */
SampleTrace
loadSweep(int samples)
{
    return sweepTrace(samples, [](double u, int i) {
        SyntheticPoint pt;
        pt.activeFraction = 0.1 + 0.9 * u;
        pt.uopsPerCycle = 0.2 + 1.5 * u * (1.0 + 0.1 * (i % 3));
        pt.busTxPerCycle = 0.02 * u;
        pt.diskIrqPerSecond = 500.0 * u;
        pt.deviceIrqPerSecond = 50.0 + 800.0 * u * (1.0 + 0.2 * (i % 2));
        pt.dmaPerCycle = 1e-4 * (i % 4);
        const double cpu = 4 * (9.25 + 26.0 * pt.activeFraction +
                                4.3 * pt.uopsPerCycle);
        const double mem = 28.0 + 4 * 3e-4 * pt.busTxPerCycle * 1e6;
        const double disk = 21.6 + 3e-3 * pt.diskIrqPerSecond;
        const double io = 32.6 + 1e-3 * pt.deviceIrqPerSecond;
        return makeSyntheticSample(pt, {cpu, 19.9, mem, io, disk}, 4, i);
    });
}

TEST(SampleTrace, AddRejectsAnotherCpuCount)
{
    SampleTrace trace;
    trace.add(makeSyntheticSample(SyntheticPoint{}, {}, 4, 0.0));
    EXPECT_EQ(trace.cpuCount(), 4u);

    try {
        trace.add(makeSyntheticSample(SyntheticPoint{}, {}, 2, 1.0));
        FAIL() << "a 2-CPU sample joined a 4-CPU trace";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("2 CPUs"), std::string::npos) << what;
        EXPECT_NE(what.find("4 CPUs"), std::string::npos) << what;
    }
    AlignedSample no_cpus;
    EXPECT_THROW(trace.add(no_cpus), FatalError);
    EXPECT_EQ(trace.size(), 1u);
}

TEST(SampleTrace, RowsRebuildWhatWasAdded)
{
    const SampleTrace trace = loadSweep(5);
    SampleTrace rebuilt;
    for (const AlignedSample &s : trace.rows())
        rebuilt.add(s);
    EXPECT_TRUE(traceBitIdentical(trace, rebuilt));

    const AlignedSample third = trace.row(2);
    EXPECT_EQ(third.time, trace.time(2));
    EXPECT_EQ(third.perCpu.size(), 4u);
    EXPECT_EQ(third.perCpu[3][PerfEvent::FetchedUops],
              trace.count(2, 3, PerfEvent::FetchedUops));
    const std::vector<double> uops =
        trace.counterColumn(PerfEvent::FetchedUops);
    EXPECT_EQ(uops[2], third.totalCount(PerfEvent::FetchedUops));
}

TEST(SampleTrace, SubsetKeepsTheCpuCountAndTheGivenRows)
{
    const SampleTrace trace = loadSweep(6);
    const SampleTrace odd = trace.subset({1, 3, 5});
    ASSERT_EQ(odd.size(), 3u);
    EXPECT_EQ(odd.cpuCount(), 4u);
    for (size_t i = 0; i < odd.size(); ++i)
        EXPECT_TRUE(traceBitIdentical(
            odd.subset({i}), trace.subset({2 * i + 1})));

    const SampleTrace none = trace.slice(100.0, 200.0);
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(none.cpuCount(), 4u);
}

/** Bitwise equality of two validation results. */
bool
sameResult(const ValidationResult &a, const ValidationResult &b)
{
    return a.workload == b.workload &&
           std::memcmp(a.averageError.data(), b.averageError.data(),
                       sizeof(double) * numRails) == 0 &&
           a.discardedPairs == b.discardedPairs;
}

TEST(SampleTrace, SharedTraceValidatesFromFourWorkers)
{
    // One trace, read by four workers at once, each with its own
    // estimator: every result equals the serial one. Under TSan this
    // pins that reading a const trace touches no shared mutable
    // state.
    const SampleTrace training = loadSweep(48);
    auto validate = [&](const SampleTrace &trace) {
        SystemPowerEstimator estimator =
            SystemPowerEstimator::makeDegradableModelSet();
        estimator.trainAll(training);
        return Validator(estimator, 21.6).validate("shared", trace);
    };
    // The serial reference reads its own copy, so the workers below
    // are the first to read the shared trace.
    const ValidationResult serial =
        validate(loadSweep(40).slice(3.0, 37.0));

    const SampleTrace shared = loadSweep(40).slice(3.0, 37.0);
    const ExperimentPool pool(4);
    const std::vector<ValidationResult> parallel =
        pool.map<ValidationResult>(
            16, [&](size_t) { return validate(shared); });
    for (const ValidationResult &r : parallel)
        EXPECT_TRUE(sameResult(r, serial));
}

} // namespace
} // namespace tdp
