/**
 * @file
 * bench::positionalArgs: every shared flag initBench consumes is
 * dropped in both its `--flag V` and `--flag=V` spellings, and every
 * other argument reaches the binary's own parser in order.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bench_util.hh"

namespace tdp {
namespace {

/** positionalArgs over a literal argument list (argv[0] implied). */
std::vector<std::string>
positional(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    return bench::positionalArgs(static_cast<int>(args.size()),
                                 argv.data());
}

/** The shared flags that take a value. */
const char *const valueFlags[] = {"--jobs",         "--trace-out",
                                  "--manifest-out", "--timeline-out",
                                  "--prom-out",     "--repetitions"};

using Args = std::vector<std::string>;

TEST(BenchArgs, ValueFlagsAreDroppedInBothSpellings)
{
    for (const std::string flag : valueFlags) {
        // The value may itself look like a flag; it is still the
        // flag's value, not a positional argument.
        EXPECT_EQ(positional({flag, "4", "pos"}), Args{"pos"}) << flag;
        EXPECT_EQ(positional({"pos", flag, "--format"}), Args{"pos"})
            << flag;
        EXPECT_EQ(positional({flag + "=4", "pos"}), Args{"pos"})
            << flag;
    }
}

TEST(BenchArgs, JobsShorthandAndCacheSwitchesAreDropped)
{
    EXPECT_EQ(positional({"-j", "4", "pos"}), Args{"pos"});
    EXPECT_EQ(positional({"-j4", "pos"}), Args{"pos"});
    EXPECT_EQ(positional({"--trace-cache", "pos"}), Args{"pos"});
    EXPECT_EQ(positional({"--trace-cache=dir", "pos"}), Args{"pos"});
    EXPECT_EQ(positional({"--no-trace-cache", "pos"}), Args{"pos"});
}

TEST(BenchArgs, OtherArgumentsPassThroughInOrder)
{
    EXPECT_EQ(positional({}), Args{});
    EXPECT_EQ(positional({"gcc", "-j2", "8", "--jobs=3", "--format",
                          "bin", "--trace-cache", "30",
                          "--manifest-out", "m.json", "--read=x"}),
              (Args{"gcc", "8", "--format", "bin", "30", "--read=x"}));
    // Look-alikes of shared flags belong to the binary.
    EXPECT_EQ(positional({"--jobsx", "--trace-outfile", "--prom-out-x",
                          "--help"}),
              (Args{"--jobsx", "--trace-outfile", "--prom-out-x",
                    "--help"}));
}

} // namespace
} // namespace tdp
