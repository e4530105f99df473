/**
 * @file
 * Trace recorder utility: run any registered workload under the
 * instrumented server and dump the aligned (counters, power) trace
 * for offline analysis or external model fitting - or convert a
 * previously dumped trace between formats.
 *
 * Usage:
 *   trace_dump [workload] [instances] [seconds] [stagger] [seed]
 *              [--format csv|bin] [--read FILE] [--manifest]
 *
 * Defaults: gcc 8 120 0 0x5eed2007, CSV. Output goes to stdout;
 * progress to stderr. `--help` prints the usage and exits 0; an
 * unknown option or workload, or a positional number that does not
 * parse whole (instances: a positive integer; seconds: a positive
 * number; stagger: a non-negative number; seed: an unsigned integer),
 * is a usage error (exit 2).
 *
 * Formats:
 *  - csv: the historical lossy export (rounded values, counters
 *    summed across CPUs, no NaN payloads);
 *  - bin: the versioned binary format of measure/trace_io.hh -
 *    lossless, so `--format bin` output reloads bit-identical,
 *    including fault-injected NaN/Inf samples.
 *
 * With `--read FILE` no simulation runs: the trace is loaded from
 * FILE (binary detected by magic, anything else parsed as CSV) and
 * re-emitted in the requested format, so the tool doubles as a
 * bin->csv / csv->bin converter.
 *
 * With `--manifest` no simulation runs either: the spec's trace must
 * already sit in the trace cache (enable it with --trace-cache or
 * TDP_TRACE_CACHE) or be named by --read, and the tool prints a run
 * manifest document for it on stdout instead of the trace itself.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "workloads/profile.hh"

#include "common/bench_util.hh"
#include "common/logging.hh"
#include "measure/trace_io.hh"

namespace {

using namespace tdp;

constexpr const char *synopsis =
    "usage: trace_dump [workload] [instances] [seconds] [stagger] "
    "[seed]\n"
    "                  [--format csv|bin] [--read FILE] [--manifest]";

/** Load a trace from a file, sniffing binary vs CSV by the magic. */
SampleTrace
readTraceFile(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        fatal("trace_dump: cannot open '%s'", path.c_str());
    if (looksLikeTraceBinary(file)) {
        uint64_t fingerprint = 0;
        SampleTrace trace = readTraceBinary(file, &fingerprint);
        std::fprintf(stderr,
                     "loaded %zu binary samples (fingerprint "
                     "%016llx) from %s\n",
                     trace.size(),
                     static_cast<unsigned long long>(fingerprint),
                     path.c_str());
        return trace;
    }
    SampleTrace trace = SampleTrace::readCsv(file);
    std::fprintf(stderr, "loaded %zu CSV samples from %s\n",
                 trace.size(), path.c_str());
    return trace;
}

/** Parse a --format value; usage error on anything but csv/bin. */
bool
parseFormatIsBinary(const std::string &value)
{
    if (value == "bin")
        return true;
    if (value != "csv")
        bench::usageError(formatString("--format expects 'csv' or "
                                       "'bin', got '%s'",
                                       value.c_str()),
                          synopsis);
    return false;
}

/** An unsigned integer (any strtoull base prefix), parsed whole. */
uint64_t
seedArg(const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 0);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0)
        bench::usageError("seed expects an unsigned integer, got '" +
                              text + "'",
                          synopsis);
    return value;
}

/**
 * Build the recording spec from the positional arguments, each parsed
 * whole; a usage error on anything else.
 */
bench::RunSpec
specFromArgs(const std::vector<std::string> &args)
{
    using bench::ArgKind;
    using bench::numberArg;
    bench::RunSpec spec;
    spec.workload = args.size() > 0 ? args[0] : "gcc";
    spec.instances =
        args.size() > 1
            ? static_cast<int>(numberArg("instances", args[1],
                                         ArgKind::PositiveInteger,
                                         synopsis))
            : 8;
    spec.duration = args.size() > 2
                        ? numberArg("seconds", args[2],
                                    ArgKind::PositiveNumber, synopsis)
                        : 120.0;
    spec.stagger = args.size() > 3
                       ? numberArg("stagger", args[3],
                                   ArgKind::NonNegativeNumber, synopsis)
                       : 0.0;
    spec.seed = args.size() > 4 ? seedArg(args[4]) : bench::defaultSeed;
    spec.skip = 0.0;
    if (spec.workload == "idle")
        spec.instances = 0;
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tdp;
    using namespace tdp::bench;

    initBench(argc, argv);

    bool binary = false;
    bool manifest_mode = false;
    std::string read_path;
    std::vector<std::string> args;
    const std::vector<std::string> remaining =
        positionalArgs(argc, argv);
    for (size_t i = 0; i < remaining.size(); ++i) {
        const std::string &arg = remaining[i];
        if (arg == "--help" || arg == "-h") {
            std::printf("%s\n", synopsis);
            return 0;
        } else if (arg == "--format") {
            if (i + 1 >= remaining.size())
                usageError("--format expects 'csv' or 'bin'", synopsis);
            binary = parseFormatIsBinary(remaining[++i]);
        } else if (arg.rfind("--format=", 0) == 0) {
            binary = parseFormatIsBinary(arg.substr(9));
        } else if (arg == "--read") {
            if (i + 1 >= remaining.size())
                usageError("--read expects a trace file", synopsis);
            read_path = remaining[++i];
        } else if (arg.rfind("--read=", 0) == 0) {
            read_path = arg.substr(7);
        } else if (arg == "--manifest") {
            manifest_mode = true;
        } else if (arg.size() > 1 && arg[0] == '-') {
            usageError("unknown option '" + arg + "'", synopsis);
        } else {
            args.push_back(arg);
        }
    }

    SampleTrace trace;
    uint64_t fingerprint = 0;
    if (manifest_mode && read_path.empty()) {
        // Manifest for a cached run: no re-simulation, ever. The
        // trace must already be in the cache (or come via --read).
        RunSpec spec = specFromArgs(args);
        TraceCache *cache = traceCache();
        if (!cache)
            fatal("--manifest needs a cached trace: enable the "
                  "cache (--trace-cache or TDP_TRACE_CACHE) or name "
                  "a file with --read");
        fingerprint = runFingerprint(spec);
        if (!cache->lookup(fingerprint, trace))
            fatal("--manifest: no cached trace for %s (fingerprint "
                  "%016llx) in %s; record it first by running the "
                  "workload once with the cache enabled",
                  spec.workload.c_str(),
                  static_cast<unsigned long long>(fingerprint),
                  cache->root().c_str());

        obs::RunManifest manifest;
        manifest.setTool("trace_dump");
        manifest.setJobs(jobs());
        obs::ManifestRun run;
        run.workload = spec.workload;
        run.samples = trace.size();
        run.fingerprint = fingerprint;
        run.fromCache = true;
        run.simSeconds = spec.duration;
        manifest.addRun(std::move(run));
        manifest.writeJson(std::cout,
                           obs::StatsRegistry::global().snapshot());
        return 0;
    }

    if (!read_path.empty()) {
        trace = readTraceFile(read_path);
        if (manifest_mode) {
            obs::RunManifest manifest;
            manifest.setTool("trace_dump");
            manifest.setJobs(jobs());
            obs::ManifestRun run;
            run.workload = "file:" + read_path;
            run.samples = trace.size();
            manifest.addRun(std::move(run));
            manifest.writeJson(
                std::cout, obs::StatsRegistry::global().snapshot());
            return 0;
        }
    } else {
        const RunSpec spec = specFromArgs(args);

        // Validate the workload name before burning simulation time.
        const std::vector<std::string> names = workloadProfileNames();
        if (spec.workload != "idle" &&
            std::find(names.begin(), names.end(), spec.workload) ==
                names.end())
            usageError("unknown workload '" + spec.workload + "'",
                       synopsis);

        std::fprintf(stderr,
                     "recording %s x%d for %.0fs (stagger %.0fs, seed "
                     "%#llx)...\n",
                     spec.workload.c_str(), spec.instances,
                     spec.duration, spec.stagger,
                     static_cast<unsigned long long>(spec.seed));

        trace = runTraces({spec})[0];
        fingerprint = runFingerprint(spec);
    }

    if (binary)
        writeTraceBinary(std::cout, trace, fingerprint);
    else
        trace.writeCsv(std::cout);
    std::fprintf(stderr, "%zu samples written (%s)\n", trace.size(),
                 binary ? "bin" : "csv");
    return 0;
}
