/**
 * @file
 * Reproduces the paper's Equations 1-5 as fitted artifacts: trains
 * every model with the paper's training discipline and prints the
 * fitted coefficients, the training goodness-of-fit, and a
 * linear-vs-quadratic form comparison per subsystem (the paper's
 * section 3.3.1 model-format selection).
 *
 * Note on coefficients: the paper's printed coefficient magnitudes
 * are not unit-recoverable (see EXPERIMENTS.md); the comparison is on
 * model form, DC terms and resulting error rates.
 */

#include <cstdio>

#include "core/model.hh"
#include "core/selector.hh"
#include "stats/metrics.hh"

#include "common/bench_util.hh"

namespace {

using namespace tdp;
using namespace tdp::bench;

/** Training error of a model on its own training trace. */
double
selfError(const SubsystemModel &model, const SampleTrace &trace)
{
    return averageError(model.estimateTrace(trace),
                        trace.measuredColumn(model.rail()));
}

} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv);

    std::printf("Equations 1-5: fitted subsystem power models\n\n");

    const std::vector<SampleTrace> traces =
        runTraces({trainingRun("gcc"), trainingRun("mcf"),
                   trainingRun("diskload"), trainingRun("idle")});
    const SampleTrace &gcc = traces[0];
    const SampleTrace &mcf = traces[1];
    const SampleTrace &diskload = traces[2];
    const SampleTrace &idle = traces[3];

    // Equation 1 (CPU, linear; paper: 9.25 + 26.45*active + 4.31*uops
    // per CPU, trained on gcc).
    CpuPowerModel cpu;
    cpu.train(gcc);
    std::printf("Eq 1 (train: gcc)      %s\n    training error %.2f%% "
                "(paper trace error: 3.1%%)\n\n",
                cpu.describe().c_str(), selfError(cpu, gcc) * 100.0);

    // Equation 2 (memory via L3 misses, quadratic; fails under high
    // non-CPU traffic - see fig4).
    auto mem_l3 = makeMemoryL3Model();
    mem_l3->train(mcf);
    std::printf("Eq 2 (train: mcf)      %s\n    training error %.2f%%"
                " - and %.2f%% when applied to mcf's own trace after\n"
                "    training on mesa (the paper's failure case, "
                "fig4)\n\n",
                mem_l3->describe().c_str(),
                selfError(*mem_l3, mcf) * 100.0, [&] {
                    RunSpec mesa = trainingRun("mesa");
                    mesa.stagger = 45.0;
                    mesa.duration = 500.0;
                    auto m = makeMemoryL3Model();
                    m->train(runTraces({mesa})[0]);
                    return selfError(*m, mcf) * 100.0;
                }());

    // Equation 3 (memory via bus transactions, quadratic; the final
    // memory model; paper error 2.2% on mcf).
    auto mem_bus = makeMemoryBusModel();
    mem_bus->train(mcf);
    std::printf("Eq 3 (train: mcf)      %s\n    training error "
                "%.2f%% (paper: 2.2%%)\n\n",
                mem_bus->describe().c_str(),
                selfError(*mem_bus, mcf) * 100.0);

    // Equation 4 (disk via interrupts + DMA; paper error 1.75% above
    // DC on the synthetic disk workload).
    DiskPowerModel disk;
    disk.train(diskload);
    std::printf("Eq 4 (train: diskload) %s\n    training error "
                "%.2f%%\n\n",
                disk.describe().c_str(),
                selfError(disk, diskload) * 100.0);

    // Equation 5 (I/O via interrupts; paper error <1%).
    auto io = makeIoInterruptModel();
    io->train(diskload);
    std::printf("Eq 5 (train: diskload) %s\n    training error "
                "%.2f%% (paper: <1%%)\n\n",
                io->describe().c_str(),
                selfError(*io, diskload) * 100.0);

    // Chipset constant (section 4.2.5; paper: 19.9 W).
    ChipsetPowerModel chipset;
    chipset.train(idle);
    std::printf("Chipset (train: idle)  %s (paper: 19.9 W)\n\n",
                chipset.describe().c_str());

    // Section 3.3: event selection by correlation, per rail.
    std::printf("Event correlation ranking (training traces):\n");
    struct RailTrace
    {
        Rail rail;
        const SampleTrace *trace;
    };
    const RailTrace rails[] = {{Rail::Cpu, &gcc},
                               {Rail::Memory, &mcf},
                               {Rail::Disk, &diskload},
                               {Rail::Io, &diskload}};
    for (const RailTrace &rt : rails) {
        const auto ranking = EventSelector::rank(*rt.trace, rt.rail);
        std::printf("  %-7s:", railName(rt.rail));
        for (size_t i = 0; i < 3 && i < ranking.size(); ++i) {
            std::printf(" %s (%.3f)", ranking[i].metric.c_str(),
                        ranking[i].correlation);
        }
        std::printf("\n");
    }
    return 0;
}
