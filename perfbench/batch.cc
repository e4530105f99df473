/**
 * @file
 * The batch workloads: paper-pipeline (the Table 3+4 protocol from
 * cold: simulate, align, train, validate) and model-grid (a
 * leave-one-workload-out grid over the paper's traces, loaded from a
 * private trace cache).
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>

#include "common/bench_util.hh"
#include "common/table.hh"
#include "core/trainer.hh"
#include "core/validator.hh"
#include "exp/experiment_pool.hh"
#include "harness.hh"
#include "measure/trace_io.hh"
#include "obs/span_tracer.hh"
#include "platform/server.hh"
#include "trace/trace_cache.hh"

namespace perfbench {

namespace {

using namespace tdp;
using bench::RunSpec;

/** Experiment-pool workers of both batch workloads: the host's cores. */
constexpr int batchWorkers = 4;

/** Table 3 rows, then Table 4 rows, in the paper binaries' order. */
const std::vector<std::string> intWorkloads = {
    "idle", "gcc", "mcf", "vortex", "dbt2", "specjbb", "diskload"};
const std::vector<std::string> fpWorkloads = {"art", "lucas", "mesa",
                                              "mgrid", "wupwise"};

std::vector<std::string>
paperWorkloads()
{
    std::vector<std::string> all = intWorkloads;
    all.insert(all.end(), fpWorkloads.begin(), fpWorkloads.end());
    return all;
}

/** trainPaperEstimator's four staggered runs: gcc, mcf, diskload, idle. */
std::vector<RunSpec>
trainingSpecs(uint64_t master)
{
    std::vector<RunSpec> specs;
    for (const char *name : {"gcc", "mcf", "diskload", "idle"}) {
        RunSpec spec = bench::trainingRun(name);
        spec.seed ^= master;
        specs.push_back(spec);
    }
    return specs;
}

/** The twelve characterisation runs printErrorTable validates on. */
std::vector<RunSpec>
characterisationSpecs(uint64_t master)
{
    std::vector<RunSpec> specs;
    for (const std::string &name : paperWorkloads()) {
        RunSpec spec = bench::characterizationRun(name);
        spec.seed = master;
        specs.push_back(spec);
    }
    return specs;
}

/** One simulated run and the exact counts it produced. */
struct RunOutcome
{
    SampleTrace trace;
    uint64_t quanta = 0;
    uint64_t events = 0;
    uint64_t orphans = 0;
    double seconds = 0.0;
};

/**
 * Simulate one spec on a fresh Server (so the modelled caches start
 * cold), align it and drop the skip window. Spans carry @p id.
 */
RunOutcome
simulate(const RunSpec &spec, double id)
{
    const Clock::time_point start = Clock::now();
    RunOutcome out;
    obs::TraceSpan task("exp", "ExperimentPool::task");
    task.arg("id", id);
    std::unique_ptr<Server> server;
    {
        obs::TraceSpan span("platform", "Server::Server");
        span.arg("id", id);
        Server::Params params;
        params.quantum = spec.quantum;
        params.rig.faults = spec.faults;
        server = std::make_unique<Server>(spec.seed, params);
        if (spec.instances > 0)
            server->runner().launchStaggered(spec.workload,
                                             spec.instances,
                                             spec.firstStart,
                                             spec.stagger);
    }
    {
        obs::TraceSpan span("sim", "Server::run");
        span.arg("id", id);
        server->run(spec.duration);
    }
    {
        obs::TraceSpan span("measure", "MeasurementRig::collect");
        span.arg("id", id);
        const SampleTrace &full = server->rig().collect();
        out.trace = spec.skip <= 0.0
                        ? full
                        : full.slice(spec.skip, spec.duration + 1.0);
    }
    out.quanta = server->system().quantaExecuted();
    out.events = server->system().events().processedCount();
    out.orphans = server->rig().aligner().orphanWindows() +
                  server->rig().aligner().orphanReadings();
    out.seconds = secondsSince(start);
    return out;
}

/** printErrorTable's rendering of one group of results. */
std::string
renderErrorTable(const std::vector<ValidationResult> &results,
                 const std::string &average_label)
{
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
    std::ostringstream os;
    table.render(os);
    return os.str();
}

/** Serialized (TDPT) size of a trace in bytes. */
uint64_t
traceBytes(const SampleTrace &trace)
{
    std::ostringstream os;
    writeTraceBinary(os, trace);
    return os.str().size();
}

/** FNV-1a over the bit patterns of every rail error of @p results. */
uint64_t
errorDigest(const std::vector<ValidationResult> &results, uint64_t seed)
{
    uint64_t digest = seed;
    for (const ValidationResult &r : results)
        digest = fnv1a64(r.averageError.data(),
                         sizeof(double) * r.averageError.size(), digest);
    return digest;
}

/** Eq 6 mean over rails x results, in percent (finite cells only). */
double
meanErrorPct(const std::vector<ValidationResult> &results)
{
    double sum = 0.0;
    size_t n = 0;
    for (const ValidationResult &r : results)
        for (const double e : r.averageError)
            if (std::isfinite(e)) {
                sum += e;
                ++n;
            }
    return n ? 100.0 * sum / static_cast<double>(n) : 0.0;
}

/**
 * The grid's accuracy summary (%): per rail, the median held-out
 * error over the cells, averaged over rails. A median, because a row
 * trained on a trace without variation on a rail (idle for CPU)
 * extrapolates without bound on the others.
 */
double
medianCellErrorPct(const std::vector<ValidationResult> &results)
{
    double sum = 0.0;
    for (int r = 0; r < numRails; ++r) {
        std::vector<double> cells;
        for (const ValidationResult &v : results)
            if (std::isfinite(v.averageError[r]))
                cells.push_back(v.averageError[r]);
        sum += median(cells);
    }
    return 100.0 * sum / numRails;
}

/** Equality of the counts every repetition must reproduce. */
struct ExactCounts
{
    uint64_t quanta = 0;
    uint64_t events = 0;
    uint64_t samples = 0;
    uint64_t orphans = 0;

    bool
    operator==(const ExactCounts &o) const
    {
        return quanta == o.quanta && events == o.events &&
               samples == o.samples && orphans == o.orphans;
    }
};

} // namespace

void
runPaperPipeline(const Options &opt, Report &report)
{
    const uint64_t master = masterSeed(opt.seed);
    const std::vector<std::string> names = paperWorkloads();

    // Set-up: resolve the run specs and the worker pool. The Servers
    // are built inside the timed section: the pipeline starts cold.
    std::vector<RunSpec> specs;
    std::unique_ptr<ExperimentPool> pool;
    report.series("setup_s", repeatSetup([] {}, [&] {
        specs = trainingSpecs(master);
        const std::vector<RunSpec> chars = characterisationSpecs(master);
        specs.insert(specs.end(), chars.begin(), chars.end());
        pool = std::make_unique<ExperimentPool>(batchWorkers);
        // A short warm run on every worker and one model set, dropped
        // again: pages in the code and the workload profiles, as a first
        // user would. Every timed run still builds its own Server, so
        // the modelled caches start cold.
        RunSpec warm = bench::characterizationRun("gcc");
        warm.seed = master;
        warm.duration = 5.0;
        warm.skip = 0.0;
        pool->forEach(static_cast<size_t>(batchWorkers),
                      [&](size_t) { simulate(warm, -1.0); });
        const SystemPowerEstimator model =
            SystemPowerEstimator::makePaperModelSet();
    }));

    double sim_seconds = 0.0;
    for (const RunSpec &spec : specs)
        sim_seconds += spec.duration;

    std::vector<double> step_ms;
    std::vector<std::string> tables;
    std::vector<ExactCounts> exact;
    std::vector<ValidationResult> lastResults;
    SampleTrace gccTrace;
    uint64_t estimated = 0;
    int iteration = 0;
    const auto unit = [&] {
        const int iter = iteration++;
        std::vector<RunOutcome> runs;
        {
            obs::TraceSpan span("exp", "ExperimentPool::map");
            span.arg("id", iter);
            runs = pool->map<RunOutcome>(specs.size(), [&](size_t i) {
                return simulate(specs[i], iter * 100.0 + i);
            });
        }
        ExactCounts counts;
        for (size_t i = 0; i < runs.size(); ++i) {
            const RunOutcome &run = runs[i];
            // A step is one simulated run, scaled to the paper's 180 s
            // characterisation length: the 16 runs last 120 to 390
            // simulated seconds, and unscaled their percentiles would
            // jump between run lengths.
            step_ms.push_back(run.seconds * 1e3 * 180.0 /
                              specs[i].duration);
            counts.quanta += run.quanta;
            counts.events += run.events;
            counts.samples += run.trace.size();
            counts.orphans += run.orphans;
        }
        exact.push_back(counts);

        SystemPowerEstimator estimator =
            SystemPowerEstimator::makePaperModelSet();
        ModelTrainer trainer;
        trainer.setTrainingTrace(Rail::Cpu, runs[0].trace);
        trainer.setTrainingTrace(Rail::Memory, runs[1].trace);
        trainer.setTrainingTrace(Rail::Disk, runs[2].trace);
        trainer.setTrainingTrace(Rail::Io, runs[2].trace);
        trainer.setTrainingTrace(Rail::Chipset, runs[3].trace);
        {
            obs::TraceSpan span("core", "ModelTrainer::train");
            span.arg("id", iter);
            trainer.train(estimator);
        }
        Validator validator(estimator, 0.0);
        std::vector<ValidationResult> results;
        estimated = 0;
        for (size_t w = 0; w < names.size(); ++w) {
            const size_t i = 4 + w;
            obs::TraceSpan span("core", "Validator::validate");
            span.arg("id", iter * 100.0 + i);
            results.push_back(
                validator.validate(names[w], runs[i].trace));
            estimated += runs[i].trace.size();
        }
        const std::vector<ValidationResult> ints(
            results.begin(), results.begin() + intWorkloads.size());
        const std::vector<ValidationResult> fps(
            results.begin() + intWorkloads.size(), results.end());
        tables.push_back(renderErrorTable(ints, "Integer Average") +
                         renderErrorTable(fps, "FP Average"));
        lastResults = std::move(results);
        gccTrace = std::move(runs[4 + 1].trace);
    };
    const TimedSection timed = runTimedSection(opt, 2, 16384, 1, unit);
    recordTimed(opt, timed, report);
    report.series("step_ms", step_ms);

    const uint64_t units = timed.untraced.size() + timed.traced.size();
    report.setAttempted(units * specs.size());
    report.set("work.samples", static_cast<double>(estimated));
    report.set("work.cells", 1.0 + static_cast<double>(names.size()));
    report.set("work.trace_seconds", sim_seconds);
    report.count("workers", static_cast<uint64_t>(batchWorkers));
    report.count("steps_per_pass", specs.size());
    report.count("sim.quanta", exact.front().quanta);
    report.count("sim.events", exact.front().events);
    report.count("measure.samples", exact.front().samples);
    report.count("measure.orphans", exact.front().orphans);
    report.count("core.trains", 1);
    report.count("core.estimates", estimated);
    report.text("spec_workloads", [&] {
        std::string list;
        for (const RunSpec &spec : specs)
            list += (list.empty() ? "" : ",") + spec.workload;
        return list;
    }());

    // Accuracy beside speed: Eq 6 per rail for both tables.
    report.set("avg_model_error_pct", meanErrorPct(lastResults));
    const std::vector<ValidationResult> ints(
        lastResults.begin(), lastResults.begin() + intWorkloads.size());
    const std::vector<ValidationResult> fps(
        lastResults.begin() + intWorkloads.size(), lastResults.end());
    const ValidationResult int_avg =
        Validator::average(ints, "Integer Average");
    const ValidationResult fp_avg = Validator::average(fps, "FP Average");
    for (int r = 0; r < numRails; ++r) {
        const std::string rail = railName(static_cast<Rail>(r));
        report.set("table3." + rail, 100.0 * int_avg.averageError[r]);
        report.set("table4." + rail, 100.0 * fp_avg.averageError[r]);
    }
    report.text("error_digest", hex64(errorDigest(lastResults, 0)));

    // Bytes a simulated run (gcc's) leaves behind, as the trace cache
    // would store them.
    report.set("bytes_per_session",
               static_cast<double>(traceBytes(gccTrace)));

    // Output checks.
    bool same_tables = true;
    for (const std::string &t : tables)
        same_tables = same_tables && t == tables.front();
    report.check("pipeline.repeats", same_tables,
                 "every repetition renders the same Eq 6 tables");
    bool same_counts = true;
    for (const ExactCounts &c : exact)
        same_counts = same_counts && c == exact.front();
    report.check("pipeline.exact_counts", same_counts,
                 "quanta/events/samples/orphans repeat exactly");

    // The reference: the path table3_model_error_int and
    // table4_model_error_fp take, at the same master seed.
    bench::setTraceCacheRoot("");
    bench::setJobs(batchWorkers);
    std::ostringstream captured;
    std::streambuf *old = std::cout.rdbuf(captured.rdbuf());
    const SystemPowerEstimator reference =
        bench::trainPaperEstimator(master);
    bench::printErrorTable(reference, intWorkloads, "Integer Average",
                           master);
    bench::printErrorTable(reference, fpWorkloads, "FP Average", master);
    std::cout.rdbuf(old);
    report.check("pipeline.matches_table3_table4",
                 captured.str() == tables.front(),
                 "Eq 6 tables equal the paper binaries' output");
}

namespace {

/** One row of the grid: trained on one workload, scored on the rest. */
struct GridRow
{
    std::vector<ValidationResult> heldOut;
    uint64_t estimated = 0;
    double seconds = 0.0;
};

/**
 * One pass of the grid, one pool task per row. Each row loads every
 * trace it needs from the cache itself, as an independent grid job
 * would, so the rows share nothing and one pool call covers the pass.
 */
std::vector<GridRow>
runGrid(const std::vector<std::string> &names,
        const std::vector<uint64_t> &keys, const TraceCache &cache,
        const ExperimentPool &pool, int iter)
{
    obs::TraceSpan map_span("exp", "ExperimentPool::map");
    map_span.arg("id", iter);
    return pool.map<GridRow>(names.size(), [&](size_t w) {
        const Clock::time_point start = Clock::now();
        const double id = iter * 100.0 + w;
        obs::TraceSpan task("exp", "ExperimentPool::task");
        task.arg("id", id);
        GridRow row;
        std::vector<SampleTrace> traces(keys.size());
        for (size_t i = 0; i < keys.size(); ++i) {
            obs::TraceSpan lookup("trace", "TraceCache::lookup");
            lookup.arg("id", id);
            cache.lookup(keys[i], traces[i]); // misses: cache stats
        }
        // Many rows train on a trace with no variation on some rail
        // (idle for CPU, mcf for disk): the fallback chains carry them.
        SystemPowerEstimator estimator =
            SystemPowerEstimator::makeDegradableModelSet();
        ModelTrainer trainer;
        for (int r = 0; r < numRails; ++r)
            trainer.setTrainingTrace(static_cast<Rail>(r), traces[w]);
        {
            obs::TraceSpan span("core", "ModelTrainer::train");
            span.arg("id", id);
            trainer.train(estimator);
        }
        Validator validator(estimator, 0.0);
        for (size_t v = 0; v < names.size(); ++v) {
            if (v == w)
                continue; // held-out cells only
            obs::TraceSpan span("core", "Validator::validate");
            span.arg("id", id);
            row.heldOut.push_back(validator.validate(names[v], traces[v]));
            row.estimated += traces[v].size();
        }
        row.seconds = secondsSince(start);
        return row;
    });
}

std::vector<ValidationResult>
flatten(const std::vector<GridRow> &rows)
{
    std::vector<ValidationResult> all;
    for (const GridRow &row : rows)
        all.insert(all.end(), row.heldOut.begin(), row.heldOut.end());
    return all;
}

} // namespace

void
runModelGrid(const Options &opt, Report &report)
{
    const uint64_t master = masterSeed(opt.seed);
    const std::vector<std::string> names = paperWorkloads();
    const std::vector<RunSpec> specs = characterisationSpecs(master);
    std::vector<uint64_t> keys;
    for (const RunSpec &spec : specs)
        keys.push_back(bench::runFingerprint(spec));
    const ExperimentPool pool(batchWorkers);
    const std::string root = opt.workdir + "/grid-trace-cache";

    // Set-up: simulate the traces once into a private trace cache. The
    // stores happen only here, so trace.store_s is timed here too: the
    // median over the set-up repetitions of their TraceCache::store time.
    std::unique_ptr<TraceCache> cache;
    std::vector<double> store_s;
    report.series("setup_s", repeatSetup(
        [&] { std::filesystem::remove_all(root); },
        [&] {
            cache = std::make_unique<TraceCache>(root);
            const std::vector<RunOutcome> runs = pool.map<RunOutcome>(
                specs.size(),
                [&](size_t i) { return simulate(specs[i], -1.0); });
            const Clock::time_point s0 = Clock::now();
            for (size_t i = 0; i < specs.size(); ++i)
                if (!cache->store(keys[i], runs[i].trace))
                    fatal("perfbench: trace cache store failed under %s",
                          root.c_str());
            store_s.push_back(secondsSince(s0));
        }));
    report.set("trace.store_s", median(store_s));

    uint64_t cache_bytes = 0;
    double held_out_seconds = 0.0;
    for (size_t i = 0; i < specs.size(); ++i) {
        cache_bytes += std::filesystem::file_size(cache->entryPath(keys[i]));
        held_out_seconds += specs[i].duration - specs[i].skip;
    }
    // Each trace is scored once per row it is held out of.
    held_out_seconds *= static_cast<double>(names.size() - 1);

    std::vector<double> step_ms;
    std::vector<uint64_t> digests;
    std::vector<ValidationResult> last;
    // Lookups of one pass, from the cache's own counters; a rejected
    // entry counts as a miss.
    const TraceCache::Stats &stats = cache->stats();
    uint64_t pass_hits = 0;
    uint64_t pass_misses = 0;
    uint64_t misses = 0;
    uint64_t estimated = 0;
    int iteration = 0;
    const auto unit = [&] {
        const uint64_t hits0 = stats.hits;
        const uint64_t misses0 = stats.misses + stats.rejected;
        const std::vector<GridRow> rows =
            runGrid(names, keys, *cache, pool, iteration++);
        pass_hits = stats.hits - hits0;
        pass_misses = stats.misses + stats.rejected - misses0;
        misses += pass_misses;
        estimated = 0;
        for (const GridRow &row : rows) {
            step_ms.push_back(row.seconds * 1e3);
            estimated += row.estimated;
        }
        last = flatten(rows);
        digests.push_back(errorDigest(last, 0));
    };
    const TimedSection timed = runTimedSection(opt, 3, 16384, 1, unit);
    recordTimed(opt, timed, report);
    report.series("step_ms", step_ms);

    const uint64_t units = timed.untraced.size() + timed.traced.size();
    const double cells =
        static_cast<double>(names.size() + names.size() * (names.size() - 1));
    report.setAttempted(units * static_cast<uint64_t>(cells));
    report.set("work.trace_seconds", held_out_seconds);
    report.set("work.samples", static_cast<double>(estimated));
    report.set("work.cells", cells);
    report.count("workers", static_cast<uint64_t>(batchWorkers));
    report.count("steps_per_pass", names.size());
    report.count("trace.hits", pass_hits);
    report.count("trace.misses", pass_misses);
    report.count("trace.bytes", cache_bytes);
    report.count("core.trains", names.size());
    report.count("core.estimates", estimated);
    report.set("avg_model_error_pct", medianCellErrorPct(last));
    report.set("bytes_per_session",
               static_cast<double>(cache_bytes) / specs.size());
    report.text("error_digest", hex64(digests.front()));

    bool repeats = true;
    for (const uint64_t d : digests)
        repeats = repeats && d == digests.front();
    report.check("grid.repeats", repeats,
                 "every repetition yields the same error matrix");
    report.check("grid.cache_hits", misses == 0,
                 "every trace loads from the private cache");

    // 1 vs N workers: the matrix must not depend on the worker count.
    const ExperimentPool other(1);
    const uint64_t other_digest =
        errorDigest(flatten(runGrid(names, keys, *cache, other, -1)), 0);
    report.check("grid.one_vs_n_workers", other_digest == digests.front(),
                 std::to_string(other.jobs()) + "-worker digest " +
                     hex64(other_digest) + " vs " + hex64(digests.front()));
}

} // namespace perfbench
