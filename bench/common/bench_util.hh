/**
 * @file
 * Shared helpers for the bench binaries: canonical experiment
 * protocols (how each paper workload is launched), trace collection
 * and training-set construction.
 */

#ifndef TDP_BENCH_BENCH_UTIL_HH
#define TDP_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_stats.hh"
#include "core/estimator.hh"
#include "core/trainer.hh"
#include "core/validator.hh"
#include "fault/fault_plan.hh"
#include "measure/trace.hh"
#include "obs/run_manifest.hh"
#include "platform/server.hh"
#include "trace/trace_cache.hh"

namespace tdp {
namespace bench {

/** Default master seed for all experiments (reproducible runs). */
constexpr uint64_t defaultSeed = 0x5eed2007;

/**
 * Parse the shared bench flags and configure the experiment helpers.
 * Call first thing in every bench main. Unrecognised arguments are
 * left alone for the binary's own parsing; a malformed shared flag
 * (a missing value, or one that is not wholly a positive integer) is
 * a usage error (exit 2).
 *
 *  - `--jobs N` / `-j N` / `--jobs=N` / `-jN`: experiment worker
 *    count (default: TDP_JOBS, held to the same rule, else the
 *    hardware concurrency);
 *  - `--trace-cache` / `--trace-cache=DIR`: enable the trace cache
 *    (default directory `.tdp-trace-cache` when no DIR is given).
 *    runTraces() stores each trace as soon as it is simulated, so
 *    re-running a killed batch with the same cache simulates only
 *    the runs that never finished;
 *  - `--no-trace-cache`: force the cache off.
 *  - `--trace-out FILE` / `--trace-out=FILE`: record spans and write
 *    a Chrome trace-event JSON to FILE at exit (TDP_TRACE_OUT when
 *    the flag is absent);
 *  - `--manifest-out FILE` / `--manifest-out=FILE`: write the unified
 *    run manifest (runs, metrics, stats snapshot) to FILE at exit
 *    (TDP_MANIFEST_OUT when the flag is absent);
 *  - `--timeline-out FILE` / `--timeline-out=FILE`: enable stream
 *    telemetry and dump the tick-indexed timeline + flight recorder
 *    to FILE (TDP_TIMELINE_OUT when the flag is absent). Consumed by
 *    the stream benches via timelineOutPath(); also answers SIGUSR2
 *    mid-run dumps (suffix `.sigusr2`);
 *  - `--prom-out FILE` / `--prom-out=FILE`: write the stats registry
 *    in Prometheus text exposition format to FILE at exit
 *    (TDP_PROM_OUT when the flag is absent);
 *  - `--repetitions N` / `--repetitions=N`: statistical repetitions
 *    of the measured section for benches that report repetition
 *    series (TDP_BENCH_REPS when the flag is absent; default 5).
 *
 * Without a cache flag the TDP_TRACE_CACHE environment variable
 * decides (unset/empty/"0" off, "1" default directory, else the
 * directory itself). The cache defaults OFF: with it disabled every
 * bench byte-stream is identical to a build without the cache code.
 *
 * Any observability flag enables the global StatsRegistry; with all
 * of them absent the instrumentation stays off and every bench
 * byte-stream (stdout in particular) is identical to a build without
 * the telemetry code. Also applies TDP_LOG_LEVEL to the logger.
 */
void initBench(int argc, char **argv);

/** Override the worker count used by the parallel helpers. */
void setJobs(int jobs);

/** Worker count the parallel helpers will use (>= 1). */
int jobs();

/**
 * The arguments that remain after dropping the shared flags consumed
 * by initBench(); binaries with their own positional arguments parse
 * this instead of raw argv.
 */
std::vector<std::string> positionalArgs(int argc, char **argv);

/**
 * Report a command-line mistake and exit with status 2: one
 * `usage error: MESSAGE` line on stderr, followed by `synopsis`
 * when one is given.
 */
[[noreturn]] void usageError(const std::string &message,
                             const char *synopsis = nullptr);

/**
 * Parse a positive count given to `flag` (a flag or an environment
 * variable name) whole, by numberArg's rule; usage error on anything
 * else (`2x` included).
 */
int parsePositiveValue(const char *flag, const char *text);

/** What a numeric positional argument may hold. */
enum class ArgKind
{
    PositiveInteger,
    PositiveNumber,
    NonNegativeNumber,
};

/**
 * Positional argument @p name parsed whole (strtod, finite) as
 * @p kind; a usage error, followed by @p synopsis when given, on
 * anything else.
 */
double numberArg(const char *name, const std::string &text,
                 ArgKind kind, const char *synopsis = nullptr);

/** How a workload is launched for an experiment. */
struct RunSpec
{
    /** Workload profile name. */
    std::string workload;

    /** Number of thread instances ("idle" uses zero). */
    int instances = 8;

    /** First launch time (s). */
    Seconds firstStart = 1.0;

    /** Stagger between launches (s). */
    Seconds stagger = 0.0;

    /** Total simulated duration (s). */
    Seconds duration = 180.0;

    /** Samples before this time are dropped (init transients). */
    Seconds skip = 30.0;

    /** Master seed. */
    uint64_t seed = defaultSeed;

    /** Simulator activity quantum (ticks). */
    Tick quantum = ticksPerMs;

    /**
     * Measurement faults injected into the run. Disabled by default;
     * a disabled plan leaves the run bit-identical to one with no
     * fault machinery.
     */
    FaultPlan faults;
};

/** The paper's characterisation run (Table 1/2): all threads at once. */
RunSpec characterizationRun(const std::string &workload);

/** The paper's training run: staggered starts for high variation. */
RunSpec trainingRun(const std::string &workload);

/** Execute a run and return the aligned trace (post-skip). */
SampleTrace runTrace(const RunSpec &spec);

/**
 * Execute several independent runs across the experiment pool and
 * return their traces in spec order. Each run builds its own Server
 * seeded from its spec, so results are bit-identical to running the
 * specs serially, whatever the worker count.
 *
 * When the trace cache is enabled (see initBench), each spec is
 * first looked up by its fingerprint; hits are loaded from disk
 * (bit-identical to a fresh simulation, by the binary format's
 * losslessness) and only the misses are simulated. Each worker
 * stores its trace the moment it is simulated, so a batch killed
 * midway loses only its in-flight runs: re-running it against the
 * same cache serves every finished run from disk. Rejected
 * (stale/corrupt) entries fall back to simulation with a logged
 * warning. A per-call hit/miss summary goes to stderr, never stdout,
 * so captured bench output is unaffected.
 */
std::vector<SampleTrace> runTraces(const std::vector<RunSpec> &specs);

/**
 * Content fingerprint of a run spec: every field that determines the
 * simulated trace (workload, instance count, launch times, duration,
 * skip, seed, quantum, the full fault plan) plus the binary format
 * version and a code-version salt. Bump traceCacheCodeSalt whenever
 * a change alters simulation behaviour for identical specs, so stale
 * caches miss instead of resurrecting pre-change traces.
 */
uint64_t runFingerprint(const RunSpec &spec);

/**
 * Code-version salt mixed into every fingerprint; see
 * runFingerprint.
 */
constexpr uint64_t traceCacheCodeSalt = 1;

/**
 * Enable the trace cache rooted at `root`, or disable it when root
 * is empty. Overrides flags/environment; mainly for tests and
 * benches that manage their own cache directory.
 */
void setTraceCacheRoot(const std::string &root);

/** The active trace cache, or nullptr when caching is disabled. */
TraceCache *traceCache();

/** True when any observability flag (or env) enabled telemetry. */
bool observabilityEnabled();

/** Stream-timeline dump path (--timeline-out); empty when unset. */
const std::string &timelineOutPath();

/** Prometheus text output path (--prom-out); empty when unset. */
const std::string &promOutPath();

/**
 * The process-wide run manifest the helpers accumulate into (runs,
 * bench metrics, training/health sections). Only written at exit when
 * a manifest path is configured; binaries may add their own sections.
 */
obs::RunManifest &runManifest();

/**
 * Flush observability outputs now: write the span trace and the
 * manifest to their configured paths. Installed atexit by initBench;
 * safe to call repeatedly (later calls overwrite with newer state)
 * and a no-op when telemetry is off.
 */
void flushObservability();

/** Execute a run and return both the server (for inspection) and trace. */
SampleTrace runTrace(const RunSpec &spec, std::unique_ptr<Server> &out);

/**
 * Build the paper's trained estimator: CPU model trained on staggered
 * gcc, memory on staggered mcf, disk and I/O on DiskLoad, chipset
 * constant on idle.
 */
SystemPowerEstimator trainPaperEstimator(uint64_t seed = defaultSeed);

/**
 * Like trainPaperEstimator, but the models carry graceful-degradation
 * fallback chains (makeDegradableModelSet) and the training runs are
 * executed under the given fault plan. The trainer's scrub report is
 * returned through *report when given.
 */
SystemPowerEstimator trainDegradableEstimator(
    uint64_t seed, const FaultPlan &faults,
    TrainingReport *report = nullptr);

/** Idle disk power used as the DC offset in disk error reporting. */
constexpr double diskIdleDcWatts = 21.6;

/**
 * Validate the trained estimator on the named workloads (paper
 * characterisation protocol) and print a Table 3/4 style error table,
 * appending the per-group average row. Returns the results.
 */
std::vector<ValidationResult> printErrorTable(
    const SystemPowerEstimator &estimator,
    const std::vector<std::string> &workloads,
    const std::string &average_label, uint64_t seed = defaultSeed);

/**
 * writeBenchSeriesJson plus the manifest hook: when observability is
 * on, each metric's mean is added to the run manifest. All the bench
 * binaries route their JSON through here.
 */
std::string writeBenchSeries(const std::string &bench,
                             const std::vector<MetricSeries> &metrics);

} // namespace bench
} // namespace tdp

#endif // TDP_BENCH_BENCH_UTIL_HH
