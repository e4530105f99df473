/**
 * @file
 * Implementation of the bench helpers.
 */

#include "bench_util.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>

#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "exp/experiment_pool.hh"
#include "measure/trace_io.hh"
#include "obs/prom_writer.hh"
#include "obs/span_tracer.hh"
#include "obs/stats_registry.hh"
#include "trace/fingerprint.hh"

namespace tdp {
namespace bench {

namespace {

/** 0 until resolved; set by initBench()/setJobs(). */
int configuredJobs = 0;

/** The active cache; see resolveTraceCache(). */
std::unique_ptr<TraceCache> activeTraceCache;

/** True once a flag/env/setTraceCacheRoot decision has been made. */
bool traceCacheResolved = false;

/** True when --trace-out/--manifest-out (or env) enabled telemetry. */
bool observabilityOn = false;

/** Manifest output path; empty when no manifest was requested. */
std::string manifestPath;

/** Stream-timeline dump path; empty when none was requested. */
std::string timelinePath;

/** Prometheus text-exposition path; empty when none was requested. */
std::string promPath;

/** The manifest the run helpers accumulate into. */
obs::RunManifest globalManifest;

/** File name component of a path, for the manifest's tool field. */
std::string
toolName(const char *argv0)
{
    if (!argv0 || argv0[0] == '\0')
        return "bench";
    return std::filesystem::path(argv0).filename().string();
}

/**
 * Section name for the Nth contribution of one kind: "training",
 * "training.2", ... so repeated train/validate calls (robustness
 * sweeps) never append duplicate keys to one section.
 */
std::string
numberedSection(const char *base, int ordinal)
{
    if (ordinal <= 1)
        return base;
    return formatString("%s.%d", base, ordinal);
}

/** Flatten a trainer scrub report into a manifest section. */
void
addTrainingSection(const TrainingReport &report)
{
    if (!observabilityOn)
        return;
    static int calls = 0;
    const std::string section = numberedSection("training", ++calls);
    for (int r = 0; r < numRails; ++r) {
        const auto &c = report.rails[static_cast<size_t>(r)];
        const std::string rail = railName(static_cast<Rail>(r));
        globalManifest.addSectionEntry(section, rail + ".kept",
                                       c.kept);
        globalManifest.addSectionEntry(
            section, rail + ".discarded_non_finite",
            c.discardedNonFinite);
        globalManifest.addSectionEntry(
            section, rail + ".discarded_outlier", c.discardedOutlier);
    }
}

/** The shared flags that take a value. */
constexpr const char *valueFlags[] = {"--jobs",         "--trace-out",
                                      "--manifest-out", "--timeline-out",
                                      "--prom-out",     "--repetitions"};

/** How an argument spells a value flag. */
enum class Spelling
{
    /** Not this flag. */
    None,

    /** `--flag VALUE`: the value is the next argument. */
    Separate,

    /** `--flag=VALUE`. */
    Inline,
};

Spelling
spellingOf(const char *arg, const char *flag)
{
    const size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) != 0)
        return Spelling::None;
    if (arg[n] == '\0')
        return Spelling::Separate;
    return arg[n] == '=' ? Spelling::Inline : Spelling::None;
}

/**
 * The value `argv[i]` gives the flag `flag` in either spelling
 * (advancing i past a separate value), or nullptr when `argv[i]` is
 * not this flag. A missing or empty value is a usage error.
 */
const char *
flagValue(int argc, char **argv, int &i, const char *flag,
          const char *what)
{
    switch (spellingOf(argv[i], flag)) {
    case Spelling::None:
        return nullptr;
    case Spelling::Separate:
        if (i + 1 >= argc)
            usageError(formatString("%s expects %s", flag, what));
        return argv[++i];
    case Spelling::Inline:
        break;
    }
    const char *value = argv[i] + std::strlen(flag) + 1;
    if (value[0] == '\0')
        usageError(formatString("%s= expects %s", flag, what));
    return value;
}

/**
 * The directory a bare `--trace-cache` at argv[i] takes from the next
 * argument (advancing i past it), as `--trace-out FILE` does; nullptr,
 * meaning the default directory, when the next argument is missing,
 * empty or starts with '-'.
 */
const char *
traceCacheDir(int argc, char **argv, int &i)
{
    if (i + 1 >= argc || argv[i + 1][0] == '\0' || argv[i + 1][0] == '-')
        return nullptr;
    return argv[++i];
}

/** Resolve the cache from the environment when no flag decided it. */
void
resolveTraceCache()
{
    if (traceCacheResolved)
        return;
    traceCacheResolved = true;
    const std::optional<std::string> root =
        TraceCache::rootFromEnvironment();
    if (root)
        activeTraceCache = std::make_unique<TraceCache>(*root);
}

} // namespace

void
setJobs(int jobs_count)
{
    if (jobs_count <= 0)
        fatal("setJobs: worker count must be positive, got %d",
              jobs_count);
    configuredJobs = jobs_count;
}

int
jobs()
{
    if (configuredJobs == 0)
        configuredJobs = ExperimentPool::defaultJobs();
    return configuredJobs;
}

void
initBench(int argc, char **argv)
{
    setLogLevelFromEnvironment();

    std::string trace_out;
    std::string manifest_out;
    std::string timeline_out;
    std::string prom_out;
    const char *value = nullptr;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if ((value = flagValue(argc, argv, i, "-j", "a worker count"))) {
            setJobs(parsePositiveValue("-j", value));
        } else if (std::strncmp(arg, "-j", 2) == 0) {
            setJobs(parsePositiveValue("-j", arg + 2));
        } else if ((value = flagValue(argc, argv, i, "--jobs",
                                      "a worker count"))) {
            setJobs(parsePositiveValue("--jobs", value));
        } else if (std::strcmp(arg, "--trace-cache") == 0) {
            const char *dir = traceCacheDir(argc, argv, i);
            setTraceCacheRoot(dir ? dir : TraceCache::defaultRoot());
        } else if ((value = flagValue(argc, argv, i, "--trace-cache",
                                      "a directory"))) {
            setTraceCacheRoot(value);
        } else if (std::strcmp(arg, "--no-trace-cache") == 0) {
            setTraceCacheRoot("");
        } else if ((value = flagValue(argc, argv, i, "--trace-out",
                                      "a file path"))) {
            trace_out = value;
        } else if ((value = flagValue(argc, argv, i, "--manifest-out",
                                      "a file path"))) {
            manifest_out = value;
        } else if ((value = flagValue(argc, argv, i, "--timeline-out",
                                      "a file path"))) {
            timeline_out = value;
        } else if ((value = flagValue(argc, argv, i, "--prom-out",
                                      "a file path"))) {
            prom_out = value;
        } else if ((value = flagValue(argc, argv, i, "--repetitions",
                                      "a count"))) {
            setBenchRepetitions(parsePositiveValue("--repetitions", value));
        }
    }
    if (configuredJobs == 0) {
        if (const char *env = std::getenv("TDP_JOBS"))
            setJobs(parsePositiveValue("TDP_JOBS", env));
    }

    if (trace_out.empty()) {
        const char *env = std::getenv("TDP_TRACE_OUT");
        if (env && env[0] != '\0')
            trace_out = env;
    }
    if (manifest_out.empty()) {
        const char *env = std::getenv("TDP_MANIFEST_OUT");
        if (env && env[0] != '\0')
            manifest_out = env;
    }
    if (timeline_out.empty()) {
        const char *env = std::getenv("TDP_TIMELINE_OUT");
        if (env && env[0] != '\0')
            timeline_out = env;
    }
    if (prom_out.empty()) {
        const char *env = std::getenv("TDP_PROM_OUT");
        if (env && env[0] != '\0')
            prom_out = env;
    }
    if (trace_out.empty() && manifest_out.empty() &&
        timeline_out.empty() && prom_out.empty())
        return;

    observabilityOn = true;
    manifestPath = manifest_out;
    timelinePath = timeline_out;
    promPath = prom_out;
    globalManifest.setTool(toolName(argc > 0 ? argv[0] : nullptr));
    obs::StatsRegistry::global().setEnabled(true);
    if (!trace_out.empty())
        obs::SpanTracer::global().setOutput(std::move(trace_out));
    // One hook per process: initBench is called once from main.
    std::atexit(flushObservability);
}

std::vector<std::string>
positionalArgs(int argc, char **argv)
{
    std::vector<std::string> out;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "-j", 2) == 0) {
            if (arg[2] == '\0')
                ++i; // skip the value
            continue;
        }
        if (std::strcmp(arg, "--trace-cache") == 0) {
            traceCacheDir(argc, argv, i); // skip the directory
            continue;
        }
        if (std::strcmp(arg, "--no-trace-cache") == 0 ||
            spellingOf(arg, "--trace-cache") == Spelling::Inline)
            continue;
        Spelling spelling = Spelling::None;
        for (const char *flag : valueFlags)
            if ((spelling = spellingOf(arg, flag)) != Spelling::None)
                break;
        if (spelling == Spelling::Separate)
            ++i; // skip the value
        else if (spelling == Spelling::None)
            out.push_back(arg);
    }
    return out;
}

void
usageError(const std::string &message, const char *synopsis)
{
    std::fflush(stdout);
    std::fprintf(stderr, "usage error: %s\n", message.c_str());
    if (synopsis)
        std::fprintf(stderr, "%s\n", synopsis);
    std::exit(2);
}

int
parsePositiveValue(const char *flag, const char *text)
{
    return static_cast<int>(
        numberArg(flag, text, ArgKind::PositiveInteger));
}

double
numberArg(const char *name, const std::string &text, ArgKind kind,
          const char *synopsis)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    bool ok = !text.empty() && *end == '\0' && std::isfinite(value);
    const char *what = "a non-negative number";
    if (kind == ArgKind::NonNegativeNumber) {
        ok = ok && value >= 0.0;
    } else {
        ok = ok && value > 0.0;
        what = "a positive number";
    }
    if (kind == ArgKind::PositiveInteger) {
        ok = ok && value == std::floor(value) &&
             value <= std::numeric_limits<int>::max();
        what = "a positive integer";
    }
    if (!ok)
        usageError(formatString("%s expects %s, got '%s'", name, what,
                                text.c_str()),
                   synopsis);
    return value;
}

void
setTraceCacheRoot(const std::string &root)
{
    traceCacheResolved = true;
    if (root.empty())
        activeTraceCache.reset();
    else
        activeTraceCache = std::make_unique<TraceCache>(root);
}

TraceCache *
traceCache()
{
    resolveTraceCache();
    return activeTraceCache.get();
}

bool
observabilityEnabled()
{
    return observabilityOn;
}

const std::string &
timelineOutPath()
{
    return timelinePath;
}

const std::string &
promOutPath()
{
    return promPath;
}

obs::RunManifest &
runManifest()
{
    return globalManifest;
}

void
flushObservability()
{
    if (!observabilityOn)
        return;
    obs::SpanTracer &tracer = obs::SpanTracer::global();
    if (tracer.enabled()) {
        const obs::SpanTracer::Stats spans = tracer.stats();
        tracer.flush();
        globalManifest.setSpanTrace(tracer.outputPath(),
                                    spans.recorded, spans.dropped);
    }
    if (!promPath.empty()) {
        // Best-effort (atexit context): a failed write warns and
        // moves on.
        std::string error;
        const bool ok = writeFileAtomic(
            promPath,
            [](std::ostream &os) {
                obs::writePrometheusText(
                    os, obs::StatsRegistry::global().snapshot());
                return os.good();
            },
            &error);
        if (!ok)
            warn("prometheus export: writing %s failed: %s",
                 promPath.c_str(), error.c_str());
    }
    if (manifestPath.empty())
        return;
    // Runs from atexit: only best-effort helpers below (no fatal()),
    // so an exception can never escape the handler.
    static bool cacheSectionAdded = false;
    const TraceCache *cache = activeTraceCache.get();
    if (cache && !cacheSectionAdded) {
        cacheSectionAdded = true;
        const TraceCache::Stats &s = cache->stats();
        globalManifest.addSectionEntry("trace_cache", "root",
                                       cache->root());
        globalManifest.addSectionEntry("trace_cache", "hits", s.hits);
        globalManifest.addSectionEntry("trace_cache", "misses",
                                       s.misses);
        globalManifest.addSectionEntry("trace_cache", "rejected",
                                       s.rejected);
        globalManifest.addSectionEntry("trace_cache", "stores",
                                       s.stores);
        globalManifest.addSectionEntry("trace_cache", "retries",
                                       s.retries);
    }
    globalManifest.setJobs(jobs());
    globalManifest.writeFile(manifestPath);
}

uint64_t
runFingerprint(const RunSpec &spec)
{
    Fingerprint fp;
    fp.mixU64(traceFormatVersion);
    fp.mixU64(traceCacheCodeSalt);
    fp.mixString(spec.workload);
    fp.mixI64(spec.instances);
    fp.mixDouble(spec.firstStart);
    fp.mixDouble(spec.stagger);
    fp.mixDouble(spec.duration);
    fp.mixDouble(spec.skip);
    fp.mixU64(spec.seed);
    fp.mixU64(spec.quantum);
    fp.mixFaultPlan(spec.faults);
    return fp.digest();
}

std::vector<SampleTrace>
runTraces(const std::vector<RunSpec> &specs)
{
    TraceCache *cache = traceCache();
    const size_t n = specs.size();
    std::vector<SampleTrace> out(n);
    std::vector<uint64_t> keys(n, 0);
    if (cache || observabilityOn)
        for (size_t i = 0; i < n; ++i)
            keys[i] = runFingerprint(specs[i]);

    // Indices that still need a simulation, in spec order.
    std::vector<size_t> pending;
    for (size_t i = 0; i < n; ++i)
        if (!cache || !cache->lookup(keys[i], out[i]))
            pending.push_back(i);

    // Each worker stores its trace as soon as it is simulated, so a
    // batch killed midway keeps every run that finished: re-running
    // it against the same cache simulates only the rest.
    ExperimentPool(jobs()).forEach(pending.size(), [&](size_t j) {
        const size_t i = pending[j];
        out[i] = runTrace(specs[i]);
        if (cache)
            cache->store(keys[i], out[i]);
    });

    if (observabilityOn) {
        std::vector<char> simulated(n, 0);
        for (const size_t i : pending)
            simulated[i] = 1;
        for (size_t i = 0; i < n; ++i) {
            obs::ManifestRun run;
            run.workload = specs[i].workload;
            run.samples = out[i].size();
            run.fingerprint = keys[i];
            run.fromCache = !simulated[i];
            run.simSeconds = specs[i].duration;
            globalManifest.addRun(std::move(run));
        }
    }
    if (cache) {
        // Stderr only: stdout must stay byte-identical whether or
        // not a run was served from the cache.
        emitStats("trace-cache[%s]: %zu hit(s), %zu simulated of "
                  "%zu run(s), %llu retried",
                  cache->root().c_str(), n - pending.size(),
                  pending.size(), n,
                  static_cast<unsigned long long>(
                      cache->stats().retries.load()));
    }
    return out;
}

RunSpec
characterizationRun(const std::string &workload)
{
    RunSpec spec;
    spec.workload = workload;
    if (workload == "idle") {
        spec.instances = 0;
        spec.duration = 120.0;
        spec.skip = 10.0;
    } else if (workload == "diskload") {
        spec.instances = 8;
        // Staggered starts desynchronise the periodic sync() flushes,
        // giving the sustained disk/I/O activity of the paper's trace.
        spec.stagger = 1.5;
        spec.duration = 200.0;
        spec.skip = 30.0;
    } else {
        spec.instances = 8;
        spec.duration = 180.0;
        spec.skip = 30.0;
    }
    return spec;
}

RunSpec
trainingRun(const std::string &workload)
{
    RunSpec spec;
    spec.workload = workload;
    spec.instances = 8;
    spec.firstStart = 1.0;
    spec.stagger = 30.0;
    spec.duration = 390.0;
    spec.skip = 0.0;
    // A different seed stream than the validation runs, so the models
    // are never validated on their own noise realisation.
    spec.seed = defaultSeed ^ 0x7e57ab1e;
    if (workload == "idle") {
        spec.instances = 0;
        spec.duration = 120.0;
    } else if (workload == "diskload") {
        spec.stagger = 5.0;
        spec.duration = 240.0;
    }
    return spec;
}

SampleTrace
runTrace(const RunSpec &spec, std::unique_ptr<Server> &out)
{
    obs::TraceSpan span("bench", "run:" + spec.workload);
    span.arg("sim_seconds", spec.duration);

    Server::Params params;
    params.quantum = spec.quantum;
    params.rig.faults = spec.faults;
    out = std::make_unique<Server>(spec.seed, params);
    if (spec.instances > 0) {
        out->runner().launchStaggered(spec.workload, spec.instances,
                                      spec.firstStart, spec.stagger);
    }
    out->run(spec.duration);
    const SampleTrace &full = out->rig().collect();

    obs::StatsRegistry &reg = obs::StatsRegistry::global();
    if (reg.enabled())
        out->system().publishStats(reg);

    if (spec.skip <= 0.0)
        return full;
    return full.slice(spec.skip, spec.duration + 1.0);
}

SampleTrace
runTrace(const RunSpec &spec)
{
    std::unique_ptr<Server> server;
    return runTrace(spec, server);
}

SystemPowerEstimator
trainPaperEstimator(uint64_t seed)
{
    SystemPowerEstimator estimator =
        SystemPowerEstimator::makePaperModelSet();

    auto spec_for = [seed](const std::string &name) {
        RunSpec spec = trainingRun(name);
        spec.seed ^= seed;
        return spec;
    };

    // The four training runs are independent systems; fan them across
    // the experiment pool.
    const std::vector<SampleTrace> traces =
        runTraces({spec_for("gcc"), spec_for("mcf"),
                   spec_for("diskload"), spec_for("idle")});

    ModelTrainer trainer;
    trainer.setTrainingTrace(Rail::Cpu, traces[0]);
    trainer.setTrainingTrace(Rail::Memory, traces[1]);
    trainer.setTrainingTrace(Rail::Disk, traces[2]);
    trainer.setTrainingTrace(Rail::Io, traces[2]);
    trainer.setTrainingTrace(Rail::Chipset, traces[3]);
    addTrainingSection(trainer.train(estimator));
    return estimator;
}

SystemPowerEstimator
trainDegradableEstimator(uint64_t seed, const FaultPlan &faults,
                         TrainingReport *report)
{
    SystemPowerEstimator estimator =
        SystemPowerEstimator::makeDegradableModelSet();

    auto spec_for = [seed, &faults](const std::string &name) {
        RunSpec spec = trainingRun(name);
        spec.seed ^= seed;
        spec.faults = faults;
        return spec;
    };

    const std::vector<SampleTrace> traces =
        runTraces({spec_for("gcc"), spec_for("mcf"),
                   spec_for("diskload"), spec_for("idle")});

    ModelTrainer trainer;
    trainer.setTrainingTrace(Rail::Cpu, traces[0]);
    trainer.setTrainingTrace(Rail::Memory, traces[1]);
    trainer.setTrainingTrace(Rail::Disk, traces[2]);
    trainer.setTrainingTrace(Rail::Io, traces[2]);
    trainer.setTrainingTrace(Rail::Chipset, traces[3]);
    const TrainingReport scrubbed = trainer.train(estimator);
    addTrainingSection(scrubbed);
    if (report)
        *report = scrubbed;
    return estimator;
}

std::vector<ValidationResult>
printErrorTable(const SystemPowerEstimator &estimator,
                const std::vector<std::string> &workloads,
                const std::string &average_label, uint64_t seed)
{
    // Tables 3/4 report Equation 6 on the raw rail values; the
    // DC-subtracted disk metric is only used for the Figure 6 trace.
    Validator validator(estimator, 0.0);

    std::vector<RunSpec> specs;
    for (const std::string &name : workloads) {
        RunSpec spec = characterizationRun(name);
        spec.seed = seed;
        specs.push_back(spec);
    }
    const std::vector<SampleTrace> traces = runTraces(specs);

    std::vector<ValidationResult> results;
    for (size_t i = 0; i < workloads.size(); ++i)
        results.push_back(validator.validate(workloads[i], traces[i]));

    TableWriter table(
        {"workload", "CPU", "Chipset", "Memory", "I/O", "Disk"});
    auto add_row = [&table](const ValidationResult &r) {
        table.addRow({r.workload, TableWriter::pct(r.error(Rail::Cpu)),
                      TableWriter::pct(r.error(Rail::Chipset)),
                      TableWriter::pct(r.error(Rail::Memory)),
                      TableWriter::pct(r.error(Rail::Io)),
                      TableWriter::pct(r.error(Rail::Disk))});
    };
    for (const ValidationResult &r : results)
        add_row(r);
    add_row(Validator::average(results, average_label));
    table.render(std::cout);

    if (observabilityOn) {
        static int calls = 0;
        const std::string section =
            numberedSection("health", ++calls);
        const HealthReport health = estimator.health();
        for (const RailHealth &rail : health.rails) {
            globalManifest.addSectionEntry(
                section, rail.rail + ".estimates", rail.estimates);
            globalManifest.addSectionEntry(
                section, rail.rail + ".degraded", rail.degraded);
            globalManifest.addSectionEntry(
                section, rail.rail + ".unestimable",
                rail.unestimable);
        }
    }
    return results;
}

std::string
writeBenchSeries(const std::string &bench,
                 const std::vector<MetricSeries> &metrics)
{
    const std::string path = writeBenchSeriesJson(bench, metrics);
    if (observabilityOn)
        for (const MetricSeries &metric : metrics)
            globalManifest.addMetric({metric.name,
                                      seriesMean(metric.values),
                                      metric.unit});
    return path;
}

} // namespace bench
} // namespace tdp
