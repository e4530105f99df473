/**
 * @file
 * Cold-vs-warm trace cache benchmark: how much wall clock the
 * content-addressed trace cache removes from a bench binary's
 * dominant cost, the workload simulation.
 *
 * Protocol: simulate one characterisation-style run (the cold path
 * every bench pays today), store it, then reload it from the cache
 * repeatedly (the warm path) and verify each load is bit-identical
 * to the simulation. The warm measurement repeats --repetitions
 * times (TDP_BENCH_REPS) and the full series is written as
 * BENCH_bm_trace_cache.json (see bench_stats.hh), so the repo's perf
 * trajectory carries mean/stddev, not a single noisy point.
 *
 * Usage: bm_trace_cache [workload] [instances] [seconds]
 *                       [--repetitions N] [--jobs N]
 * Defaults: gcc 4 60. The cache directory is private to the run and
 * removed afterwards.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/bench_util.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "measure/trace_io.hh"
#include "trace/trace_cache.hh"
#include "workloads/profile.hh"

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tdp;
    using namespace tdp::bench;

    initBench(argc, argv);
    const std::vector<std::string> args = positionalArgs(argc, argv);

    RunSpec spec;
    spec.workload = args.size() > 0 ? args[0] : "gcc";
    spec.instances =
        args.size() > 1
            ? static_cast<int>(numberArg("instances", args[1],
                                         ArgKind::PositiveInteger))
            : 4;
    spec.duration =
        args.size() > 2
            ? numberArg("seconds", args[2], ArgKind::PositiveNumber)
            : 60.0;
    spec.skip = 10.0;
    if (spec.workload == "idle")
        spec.instances = 0;

    // Validate the workload before simulating, so a mistyped flag is
    // a usage error rather than an uncaught fatal mid-run.
    const std::vector<std::string> names = workloadProfileNames();
    if (std::find(names.begin(), names.end(), spec.workload) ==
        names.end())
        usageError("unknown workload '" + spec.workload +
                   "' (valid: " + join(names, ", ") + ")");

    // A private cache directory: the benchmark must measure its own
    // store/load, not whatever a previous run left behind.
    const std::string root = formatString(
        "bm_trace_cache.%ld.cache", static_cast<long>(::getpid()));
    const TraceCache cache(root);
    const uint64_t key = runFingerprint(spec);

    std::fprintf(stderr, "cold: simulating %s x%d for %.0fs...\n",
                 spec.workload.c_str(), spec.instances, spec.duration);
    const Clock::time_point cold_start = Clock::now();
    const SampleTrace cold = runTrace(spec);
    const double cold_seconds = secondsSince(cold_start);

    cache.store(key, cold);
    const uintmax_t entry_bytes =
        std::filesystem::file_size(cache.entryPath(key));

    // Warm loads, one repetition series entry per measured block:
    // each block repeats lookups until its timing is stable (>= 1 s
    // of loads or 100 iterations, whichever first).
    std::fprintf(stderr, "warm: reloading from %s...\n", root.c_str());
    const int reps = benchRepetitions();
    std::vector<double> warm_series, speedup_series, identical_series;
    size_t loads_total = 0;
    bool identical = true;
    for (int rep = 0; rep < reps; ++rep) {
        size_t loads = 0;
        bool rep_identical = true;
        const Clock::time_point warm_start = Clock::now();
        double warm_elapsed = 0.0;
        while (loads < 100 && warm_elapsed < 1.0) {
            SampleTrace warm;
            if (!cache.lookup(key, warm))
                fatal("bm_trace_cache: warm lookup missed its own "
                      "entry");
            rep_identical =
                rep_identical && traceBitIdentical(cold, warm);
            ++loads;
            warm_elapsed = secondsSince(warm_start);
        }
        const double warm_seconds = warm_elapsed / loads;
        warm_series.push_back(warm_seconds);
        speedup_series.push_back(
            warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0);
        identical_series.push_back(rep_identical ? 1.0 : 0.0);
        identical = identical && rep_identical;
        loads_total += loads;
    }
    const double warm_seconds = seriesMean(warm_series);
    const double speedup = seriesMean(speedup_series);

    std::filesystem::remove_all(root);

    std::printf("workload            : %s x%d, %.0fs simulated\n",
                spec.workload.c_str(), spec.instances, spec.duration);
    std::printf("samples             : %zu (%ju bytes on disk)\n",
                cold.size(), static_cast<uintmax_t>(entry_bytes));
    std::printf("cold simulate       : %.3f s\n", cold_seconds);
    std::printf("warm cache load     : %.6f s  (%zu loads, %d reps)\n",
                warm_seconds, loads_total, reps);
    std::printf("speedup             : %.1fx\n", speedup);
    std::printf("bit-identical       : %s\n",
                identical ? "yes" : "NO - BUG");

    writeBenchSeries(
        "bm_trace_cache",
        {{"cold_seconds", {cold_seconds}, "s", false, "lower"},
         {"warm_seconds", warm_series, "s", false, "lower"},
         {"speedup", speedup_series, "x", true, "higher"},
         {"samples",
          {static_cast<double>(cold.size())}, "", true, "exact"},
         {"entry_bytes",
          {static_cast<double>(entry_bytes)}, "B", true, "exact"},
         {"bit_identical", identical_series, "", true, "exact"}});

    if (!identical) {
        std::fprintf(stderr,
                     "bm_trace_cache: cached trace differs from the "
                     "simulated one\n");
        return 1;
    }
    return 0;
}
