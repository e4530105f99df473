/**
 * @file
 * Ablation A3 (google-benchmark): runtime cost of the estimation
 * path. The paper's argument for on-chip counters over OS counters
 * (section 2.2.2) is sampling cost: reading the PMU is a handful of
 * register accesses while OS counters need system-call round trips.
 * These microbenchmarks measure our equivalents: event-vector
 * derivation, per-model evaluation, full-system estimation, training,
 * and counter read-and-clear.
 */

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "common/bench_stats.hh"
#include "common/logging.hh"
#include "core/estimator.hh"
#include "core/events.hh"
#include "core/serialize.hh"
#include "cpu/perf_counters.hh"
#include "stats/regression.hh"

namespace {

using namespace tdp;

/** A representative aligned sample (4 CPUs, busy mix). */
AlignedSample
makeSample()
{
    AlignedSample s;
    s.time = 100.0;
    s.interval = 1.0;
    s.perCpu.resize(4);
    for (CounterSnapshot &snap : s.perCpu) {
        snap[PerfEvent::Cycles] = 2.8e9;
        snap[PerfEvent::HaltedCycles] = 0.3e9;
        snap[PerfEvent::FetchedUops] = 2.5e9;
        snap[PerfEvent::L3LoadMisses] = 2.1e7;
        snap[PerfEvent::TlbMisses] = 4.0e4;
        snap[PerfEvent::DmaOtherAccesses] = 1.2e6;
        snap[PerfEvent::BusTransactions] = 3.3e7;
        snap[PerfEvent::PrefetchTransactions] = 0.8e7;
        snap[PerfEvent::UncacheableAccesses] = 9.0e3;
        snap[PerfEvent::InterruptsServiced] = 1.5e3;
    }
    s.osInterruptsTotal = 6.0e3;
    s.osDiskInterrupts = 1.4e3;
    s.osDeviceInterrupts = 2.0e3;
    for (int r = 0; r < numRails; ++r)
        s.measuredWatts[static_cast<size_t>(r)] = 30.0 + r;
    return s;
}

/** A trained estimator with synthetic but plausible coefficients. */
SystemPowerEstimator
makeTrainedEstimator()
{
    SystemPowerEstimator est = SystemPowerEstimator::makePaperModelSet();
    est.model(Rail::Cpu).setCoefficients({37.0, 26.45, 4.31});
    est.model(Rail::Memory).setCoefficients({27.9, 5.2e-4, 4.8e-9});
    est.model(Rail::Disk).setCoefficients(
        {21.6, 2.5e6, 0.0, 5.3e3, 0.0});
    est.model(Rail::Io).setCoefficients({32.6, 3.1e7, 0.0});
    est.model(Rail::Chipset).setCoefficients({19.9});
    return est;
}

void
BM_EventVectorDerivation(benchmark::State &state)
{
    const AlignedSample sample = makeSample();
    for (auto _ : state)
        benchmark::DoNotOptimize(EventVector::fromSample(sample));
}
BENCHMARK(BM_EventVectorDerivation);

void
BM_SingleModelEstimate(benchmark::State &state)
{
    const SystemPowerEstimator est = makeTrainedEstimator();
    const EventVector ev = EventVector::fromSample(makeSample());
    const SubsystemModel &model = est.model(Rail::Memory);
    for (auto _ : state)
        benchmark::DoNotOptimize(model.estimate(ev));
}
BENCHMARK(BM_SingleModelEstimate);

void
BM_FullSystemEstimate(benchmark::State &state)
{
    const SystemPowerEstimator est = makeTrainedEstimator();
    const EventVector ev = EventVector::fromSample(makeSample());
    for (auto _ : state)
        benchmark::DoNotOptimize(est.estimate(ev));
}
BENCHMARK(BM_FullSystemEstimate);

void
BM_CounterReadAndClear(benchmark::State &state)
{
    PerfCounters pmu;
    for (int e = 0; e < numPerfEvents; ++e)
        pmu.increment(static_cast<PerfEvent>(e), 1e6);
    for (auto _ : state) {
        benchmark::DoNotOptimize(pmu.readAndClear());
        pmu.increment(PerfEvent::Cycles, 2.8e9);
    }
}
BENCHMARK(BM_CounterReadAndClear);

void
BM_ModelSerializeRoundTrip(benchmark::State &state)
{
    SystemPowerEstimator est = makeTrainedEstimator();
    for (auto _ : state) {
        const std::string text = saveModelsToString(est);
        loadModelsFromString(est, text);
        benchmark::DoNotOptimize(text);
    }
}
BENCHMARK(BM_ModelSerializeRoundTrip);

void
BM_TrainQuadraticModel(benchmark::State &state)
{
    // Training cost on a trace of the given length (samples).
    const int n = static_cast<int>(state.range(0));
    SampleTrace trace;
    for (int i = 0; i < n; ++i) {
        AlignedSample s = makeSample();
        const double f = 0.2 + 0.8 * (i % 97) / 96.0;
        for (CounterSnapshot &snap : s.perCpu)
            snap[PerfEvent::BusTransactions] *= f;
        s.measuredWatts[static_cast<size_t>(Rail::Memory)] =
            28.0 + 12.0 * f + 3.0 * f * f;
        trace.add(std::move(s));
    }
    for (auto _ : state) {
        auto model = makeMemoryBusModel();
        model->train(trace);
        benchmark::DoNotOptimize(model->coefficients());
    }
}
BENCHMARK(BM_TrainQuadraticModel)->Arg(64)->Arg(512)->Arg(4096);

/** Collects per-repetition runs, then prints the console report. */
class SeriesReporter : public benchmark::ConsoleReporter
{
  public:
    /** name -> counter ("" = per-iteration seconds) -> series. */
    using Series =
        std::map<std::string, std::map<std::string, std::vector<double>>>;

    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &run : reports) {
            if (run.run_type != Run::RT_Iteration)
                continue; // aggregates are recomputed by the writer
            auto &by_counter = series_[run.benchmark_name()];
            if (run.iterations > 0) {
                by_counter[""].push_back(
                    run.real_accumulated_time /
                    static_cast<double>(run.iterations));
            }
            for (const auto &[name, counter] : run.counters)
                by_counter[name].push_back(counter.value);
            if (order_.empty() ||
                order_.back() != run.benchmark_name())
                order_.push_back(run.benchmark_name());
        }
        benchmark::ConsoleReporter::ReportRuns(reports);
    }

    const Series &series() const { return series_; }

    /** Benchmark names in first-reported order. */
    const std::vector<std::string> &order() const { return order_; }

  private:
    Series series_;
    std::vector<std::string> order_;
};

} // namespace

/**
 * Parse --repetitions, run all benchmarks with that many repetitions,
 * print the usual console report and write the per-repetition series
 * to BENCH_bm_overhead.json. All metrics here are wall-clock, so none
 * are CI-gated - the committed file is a trajectory record only.
 */
int
main(int argc, char **argv)
{
    using namespace tdp::bench;

    setLogLevelFromEnvironment();
    argc = applyRepetitionsFlag(argc, argv);

    // Re-pack argv with the repetition flags up front; later
    // user-provided --benchmark_* flags still win (last wins).
    std::vector<std::string> args;
    args.push_back(argc > 0 ? argv[0] : "bm_overhead");
    args.push_back(formatString("--benchmark_repetitions=%d",
                                benchRepetitions()));
    args.push_back("--benchmark_report_aggregates_only=false");
    for (int i = 1; i < argc; ++i)
        args.push_back(argv[i]);
    std::vector<char *> cargs;
    for (std::string &arg : args)
        cargs.push_back(arg.data());
    int cargc = static_cast<int>(cargs.size());

    benchmark::Initialize(&cargc, cargs.data());
    if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data()))
        return 1;

    SeriesReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    std::vector<MetricSeries> metrics;
    for (const std::string &name : reporter.order()) {
        const auto &by_counter = reporter.series().at(name);
        for (const auto &[counter, values] : by_counter) {
            MetricSeries m;
            m.name = counter.empty() ? name + ".seconds_per_iter"
                                     : name + "." + counter;
            m.values = values;
            m.unit = counter.empty() ? "s" : "";
            metrics.push_back(std::move(m));
        }
    }
    if (!metrics.empty())
        writeBenchSeriesJson("bm_overhead", metrics);
    return 0;
}
