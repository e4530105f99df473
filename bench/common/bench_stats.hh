/**
 * @file
 * Statistical bench reporting: repetition series, machine context and
 * the versioned BENCH_<name>.json format the repo's perf trajectory
 * is built from.
 *
 * Format (version 2): one JSON object per bench binary with
 *  - "machine": CPU model, core count, compiler and git sha, so a
 *    trajectory point is attributable to the environment it ran on;
 *  - "repetitions": the repetition count the binary ran with;
 *  - "metrics": per metric the full repetition series plus
 *    mean/stddev/min/max, a unit label, and the gating contract the
 *    CI perf gate (scripts/check_bench_regression.py) enforces:
 *    "gate" marks metrics stable enough to compare across commits,
 *    "direction" says which way is better ("higher", "lower"),
 *    that any change is a failure ("exact"), or that the mean must
 *    stay under a hard "limit" carried in the file ("ceiling" -
 *    used for the telemetry overhead ratio).
 *
 * Wall-clock metrics are never gated: they are not comparable across
 * machines, and the committed baselines are refreshed per PR, not
 * per runner. Gate only deterministic counters and ratios.
 */

#ifndef TDP_BENCH_BENCH_STATS_HH
#define TDP_BENCH_BENCH_STATS_HH

#include <string>
#include <vector>

namespace tdp {
namespace bench {

/** One metric of a bench run: a value per repetition. */
struct MetricSeries
{
    /** Metric name, e.g. "fit_speedup". */
    std::string name;

    /** One value per repetition (at least one). */
    std::vector<double> values;

    /** Unit label, e.g. "s" or "x" (may be empty). */
    std::string unit;

    /** True when the CI perf gate should compare this metric. */
    bool gate = false;

    /**
     * "higher", "lower" (better), "exact" (any change fails) or
     * "ceiling" (fail when the current mean exceeds `limit`; the
     * limit is carried in the baseline, not re-derived from noise).
     */
    std::string direction = "lower";

    /** Hard upper bound for "ceiling" metrics (must be > 0). */
    double limit = 0.0;
};

/** Mean of a repetition series (0 when empty). */
double seriesMean(const std::vector<double> &values);

/** Sample standard deviation (n-1; 0 when n < 2). */
double seriesStddev(const std::vector<double> &values);

/** Environment a trajectory point was recorded on. */
struct MachineContext
{
    /** CPU model string from /proc/cpuinfo ("unknown" elsewhere). */
    std::string cpu;

    /** Hardware thread count. */
    int cores = 0;

    /** Compiler id and version (from __VERSION__). */
    std::string compiler;

    /** Git commit (TDP_GIT_SHA, else read from .git; "unknown"). */
    std::string gitSha;
};

/** The context of this process, resolved once. */
const MachineContext &machineContext();

/**
 * Repetition count bench binaries should run their measured section
 * with: the --repetitions flag when given (parsed by
 * bench_util's initBench), else TDP_BENCH_REPS, else 5.
 */
int benchRepetitions();

/** Override the repetition count (flag parsing; must be >= 1). */
void setBenchRepetitions(int reps);

/**
 * Write `BENCH_<bench>.json` (format version 2) with the machine
 * context and per-metric repetition statistics. The file lands in
 * TDP_BENCH_JSON_DIR when set, else the current directory; doubles
 * are printed round-trip exact. Returns the path written.
 */
std::string writeBenchSeriesJson(
    const std::string &bench, const std::vector<MetricSeries> &metrics);

} // namespace bench
} // namespace tdp

#endif // TDP_BENCH_BENCH_STATS_HH
