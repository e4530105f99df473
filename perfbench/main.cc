/**
 * @file
 * Entry point of the perfbench binary. Normally started by run.py, which
 * builds it, counts its stderr lines, reads its span files and prints
 * the metrics; it can also be run by hand:
 *
 *   perfbench --workload paper-pipeline --seed 0 --seconds 10
 *             --trace 0 --workdir DIR
 *
 * The last stdout line is one JSON object (see Report). The exit code
 * is 1 when an output check failed, 2 on bad usage.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.hh"

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 --workdir DIR\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value, &end, 0);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value, &end);
        } else if (arg == "--trace") {
            opt.trace = std::strcmp(value, "1") == 0;
            if (!opt.trace && std::strcmp(value, "0") != 0)
                usage("--trace takes 0 or 1");
        } else if (arg == "--workdir") {
            opt.workdir = value;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("malformed value for " + arg).c_str());
    }
    if (opt.workdir.empty())
        usage("--workdir is required");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    std::filesystem::create_directories(opt.workdir);

    Report report;
    if (opt.workload == "paper-pipeline")
        runPaperPipeline(opt, report);
    else if (opt.workload == "model-grid")
        runModelGrid(opt, report);
    else if (opt.workload == "stream-hostile")
        runStreamHostile(opt, report);
    else
        usage(("unknown workload " + opt.workload).c_str());

    report.set("peak_rss_mb", peakRssMb());
    report.print();
    return report.allChecksPassed() ? 0 : 1;
}
