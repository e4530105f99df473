/**
 * @file
 * Reproduces paper Table 2: standard deviation of subsystem power
 * (Watts) across the one-second samples of each workload run. The
 * orderings the paper highlights - SPECjbb's GC-driven CPU swing being
 * the largest, art/mgrid being nearly flat - are the properties to
 * check.
 */

#include <cstdio>
#include <iostream>

#include "common/running_stats.hh"
#include "common/table.hh"
#include "workloads/suite.hh"

#include "common/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace tdp;
    using namespace tdp::bench;

    initBench(argc, argv);

    std::printf("Table 2: Subsystem Power Standard Deviation (Watts)\n"
                "(paper highlights: SPECjbb CPU 26.2 is the largest; "
                "idle/art/mgrid nearly flat)\n\n");

    const std::vector<std::string> names = paperWorkloadOrder();
    std::vector<RunSpec> specs;
    for (const std::string &name : names)
        specs.push_back(characterizationRun(name));
    const std::vector<SampleTrace> traces = runTraces(specs);

    TableWriter table(
        {"workload", "CPU", "Chipset", "Memory", "I/O", "Disk"});
    for (size_t w = 0; w < names.size(); ++w) {
        const std::string &name = names[w];
        const SampleTrace &trace = traces[w];
        RunningStats rails[numRails];
        for (int r = 0; r < numRails; ++r)
            for (const double watts :
                 trace.measuredColumn(static_cast<Rail>(r)))
                rails[r].add(watts);
        table.addRow({name,
                      TableWriter::num(rails[0].stddev(), 3),
                      TableWriter::num(rails[1].stddev(), 3),
                      TableWriter::num(rails[2].stddev(), 3),
                      TableWriter::num(rails[3].stddev(), 3),
                      TableWriter::num(rails[4].stddev(), 3)});
    }
    table.render(std::cout);
    return 0;
}
