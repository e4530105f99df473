/**
 * @file
 * Reproduces paper Figure 1: the propagation of performance events
 * from the CPU into the other subsystems. Instead of a hand-drawn
 * diagram, this binary demonstrates the propagation on the live
 * system: it perturbs one event source at a time (L3 misses, DMA
 * traffic, interrupts, uncacheable accesses) and reports which
 * subsystem rails respond, printing the reachability table the figure
 * depicts.
 */

#include <cstdio>
#include <iostream>
#include <iterator>

#include "common/running_stats.hh"
#include "common/table.hh"

#include "common/bench_util.hh"

namespace {

using namespace tdp;
using namespace tdp::bench;

/** The figure's shortened characterisation run for one workload. */
RunSpec
probeRun(const std::string &workload)
{
    RunSpec spec = characterizationRun(workload);
    spec.duration = 120.0;
    return spec;
}

/** Mean rail power over a collected trace. */
std::array<double, numRails>
railMeans(const SampleTrace &trace)
{
    std::array<double, numRails> means{};
    for (int r = 0; r < numRails; ++r)
        for (const double watts : trace.measuredColumn(static_cast<Rail>(r)))
            means[static_cast<size_t>(r)] += watts;
    for (double &m : means)
        m /= static_cast<double>(trace.size());
    return means;
}

} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv);

    std::printf(
        "Figure 1: Propagation of Performance Events (live system)\n"
        "Each row perturbs one event source; '+x.x' marks the rails\n"
        "that moved versus idle (the trickle-down paths of Fig. 1).\n\n");

    struct Probe
    {
        const char *label;
        const char *workload;
    };
    // Workloads chosen to excite one dominant event path each.
    const Probe probes[] = {
        {"L3/TLB misses -> memory bus (mgrid)", "mgrid"},
        {"Fetch activity -> CPU power (vortex)", "vortex"},
        {"DMA + interrupts -> I/O, disk (diskload)", "diskload"},
    };

    // Idle baseline plus the three probes, fanned across the pool.
    std::vector<RunSpec> specs = {probeRun("idle")};
    for (const Probe &probe : probes)
        specs.push_back(probeRun(probe.workload));
    const std::vector<SampleTrace> traces = runTraces(specs);

    const auto idle = railMeans(traces[0]);

    TableWriter table({"event source", "CPU", "Chipset", "Memory",
                       "I/O", "Disk"});
    for (size_t p = 0; p < std::size(probes); ++p) {
        const Probe &probe = probes[p];
        const auto loaded = railMeans(traces[p + 1]);
        std::vector<std::string> row = {probe.label};
        for (int r = 0; r < numRails; ++r) {
            const double delta = loaded[static_cast<size_t>(r)] -
                                 idle[static_cast<size_t>(r)];
            row.push_back(delta > 0.5
                              ? "+" + TableWriter::num(delta, 1)
                              : "-");
        }
        table.addRow(row);
    }
    table.render(std::cout);

    std::printf(
        "\nPropagation chains exercised (paper Figure 1):\n"
        "  CPU --L3 miss--> memory bus --> memory controller/DRAM\n"
        "  CPU --TLB miss--> page walk --> memory (and disk when "
        "paging)\n"
        "  I/O device --DMA--> memory controller --> DRAM (snooped by "
        "CPU)\n"
        "  I/O device --interrupt--> CPU (vector identifies source)\n"
        "  CPU --uncacheable access--> I/O chips\n");
    return 0;
}
