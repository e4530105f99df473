/**
 * @file
 * Calibration utility: runs the characterisation protocol for every
 * workload and prints measured rail statistics next to the paper's
 * Table 1 targets, plus the key counter rates driving them. Used to
 * tune the workload profiles; not one of the paper's artifacts.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "common/logging.hh"
#include "common/running_stats.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "core/events.hh"
#include "workloads/suite.hh"

#include "common/bench_util.hh"

namespace {

using namespace tdp;
using namespace tdp::bench;

/** Paper Table 1 values for reference printing. */
struct Target
{
    const char *name;
    double cpu, chipset, memory, io, disk;
};

const Target targets[] = {
    {"idle", 38.4, 19.9, 28.1, 32.9, 21.6},
    {"gcc", 162, 20.0, 34.2, 32.9, 21.8},
    {"mcf", 167, 20.0, 39.6, 32.9, 21.9},
    {"vortex", 175, 17.3, 35.0, 32.9, 21.9},
    {"art", 159, 18.7, 35.8, 33.5, 21.9},
    {"lucas", 135, 19.5, 46.4, 33.5, 22.1},
    {"mesa", 165, 16.8, 33.9, 33.0, 21.8},
    {"mgrid", 146, 19.0, 45.1, 32.9, 22.1},
    {"wupwise", 167, 18.8, 45.2, 33.5, 22.1},
    {"dbt2", 48.3, 19.8, 29.0, 33.2, 21.6},
    {"specjbb", 112, 18.7, 37.8, 32.9, 21.9},
    {"diskload", 123, 19.9, 42.5, 35.2, 22.2},
};

} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv);
    const std::vector<std::string> positional =
        positionalArgs(argc, argv);
    const std::string only = positional.empty() ? "" : positional[0];

    std::vector<const Target *> selected;
    std::vector<RunSpec> specs;
    std::vector<std::string> valid;
    for (const Target &t : targets) {
        valid.push_back(t.name);
        if (!only.empty() && only != t.name)
            continue;
        selected.push_back(&t);
        specs.push_back(characterizationRun(t.name));
    }
    if (selected.empty())
        usageError("unknown workload '" + only +
                   "' (valid: " + join(valid, ", ") + ")");

    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<SampleTrace> traces = runTraces(specs);
    const auto t1 = std::chrono::steady_clock::now();

    TableWriter table({"workload", "CPU", "(tgt)", "Chipset", "(tgt)",
                       "Memory", "(tgt)", "I/O", "(tgt)", "Disk",
                       "(tgt)", "busTx/s", "uops/cyc", "act", "irq/s"});

    for (size_t w = 0; w < selected.size(); ++w) {
        const Target &t = *selected[w];
        const SampleTrace &trace = traces[w];

        RunningStats rails[numRails];
        RunningStats bus_rate, uops, active, irq;
        for (const AlignedSample &s : trace.rows()) {
            for (int r = 0; r < numRails; ++r)
                rails[r].add(s.measured(static_cast<Rail>(r)));
            const EventVector ev = EventVector::fromSample(s);
            double cycles = 0.0;
            for (const auto &c : ev.cpu)
                cycles += c.cycles;
            bus_rate.add(s.totalCount(PerfEvent::BusTransactions) /
                         s.interval);
            uops.add(ev.total(&CpuEventRates::uopsPerCycle));
            active.add(ev.total(&CpuEventRates::percentActive));
            irq.add(s.osInterruptsTotal / s.interval);
        }

        table.addRow({t.name,
                      TableWriter::num(rails[0].mean(), 1),
                      TableWriter::num(t.cpu, 1),
                      TableWriter::num(rails[1].mean(), 1),
                      TableWriter::num(t.chipset, 1),
                      TableWriter::num(rails[2].mean(), 1),
                      TableWriter::num(t.memory, 1),
                      TableWriter::num(rails[3].mean(), 1),
                      TableWriter::num(t.io, 1),
                      TableWriter::num(rails[4].mean(), 2),
                      TableWriter::num(t.disk, 1),
                      TableWriter::num(bus_rate.mean() / 1e6, 1),
                      TableWriter::num(uops.mean(), 2),
                      TableWriter::num(active.mean(), 2),
                      TableWriter::num(irq.mean(), 0)});

        tdp::emitStats("[%s: %zu samples]", t.name, trace.size());
    }

    const double wall = std::chrono::duration<double>(t1 - t0).count();
    tdp::emitStats("[%zu runs in %.1fs wall, %d jobs]", traces.size(),
                   wall, tdp::bench::jobs());

    table.render(std::cout);
    return 0;
}
