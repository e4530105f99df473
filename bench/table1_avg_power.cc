/**
 * @file
 * Reproduces paper Table 1: average subsystem power (Watts) for the
 * twelve workloads, in the paper's order, plus the total column.
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

    std::printf("Table 1: Subsystem Average Power (Watts)\n"
                "(paper totals: idle 141, gcc 271, mcf 281, vortex 282, "
                "art 269, lucas 257,\n mesa 271, mgrid 265, wupwise 287, "
                "dbt-2 152, SPECjbb 223, DiskLoad 243)\n\n");

    const std::vector<std::string> names = paperWorkloadOrder();
    std::vector<RunSpec> specs;
    for (const std::string &name : names)
        specs.push_back(characterizationRun(name));
    const std::vector<SampleTrace> traces = runTraces(specs);

    TableWriter table({"workload", "CPU", "Chipset", "Memory", "I/O",
                       "Disk", "Total"});
    for (size_t w = 0; w < names.size(); ++w) {
        const std::string &name = names[w];
        const SampleTrace &trace = traces[w];
        RunningStats rails[numRails];
        for (int r = 0; r < numRails; ++r)
            for (const double watts :
                 trace.measuredColumn(static_cast<Rail>(r)))
                rails[r].add(watts);
        double total = 0.0;
        for (const RunningStats &r : rails)
            total += r.mean();
        table.addRow({name,
                      TableWriter::num(rails[0].mean(), 1),
                      TableWriter::num(rails[1].mean(), 1),
                      TableWriter::num(rails[2].mean(), 1),
                      TableWriter::num(rails[3].mean(), 1),
                      TableWriter::num(rails[4].mean(), 1),
                      TableWriter::num(total, 0)});
    }
    table.render(std::cout);
    return 0;
}
