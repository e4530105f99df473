/**
 * @file
 * Ablation A1 (paper section 4.2.2 narrative): memory model input
 * choice. Compares, across all twelve workloads, the average error of
 *   (a) the L3-load-miss model (Equation 2),
 *   (b) a bus-transaction model with the DMA/other traffic excluded
 *       (what a CPU-only view would give), and
 *   (c) the full bus-transaction model including DMA (Equation 3).
 * All three are trained on the staggered mcf trace.
 */

#include <cstdio>
#include <iostream>

#include "common/table.hh"
#include "core/model.hh"
#include "stats/metrics.hh"
#include "workloads/suite.hh"

#include "common/bench_util.hh"

namespace {

using namespace tdp;
using namespace tdp::bench;

/** Bus-transaction rate with the DMA/other share removed. */
struct CpuOnlyBusModel : QuadraticEventModel
{
    CpuOnlyBusModel()
        : QuadraticEventModel("memory-bus-nodma", Rail::Memory,
                              &CpuEventRates::busTxPerMcycle)
    {
    }
};

double
errorOn(SubsystemModel &model, const SampleTrace &trace,
        bool exclude_dma)
{
    std::vector<double> modeled, measured;
    for (const AlignedSample &s : trace.rows()) {
        EventVector ev = EventVector::fromSample(s);
        if (exclude_dma) {
            for (CpuEventRates &c : ev.cpu)
                c.busTxPerMcycle -= c.dmaPerCycle * 1e6;
        }
        modeled.push_back(model.estimate(ev));
        measured.push_back(s.measured(Rail::Memory));
    }
    return averageError(modeled, measured);
}

} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv);

    std::printf("Ablation A1: memory model inputs "
                "(L3 misses vs bus tx w/o DMA vs bus tx + DMA)\n\n");

    // The training run and the twelve validation runs are all
    // independent; fan the whole batch across the pool.
    const std::vector<std::string> names = paperWorkloadOrder();
    std::vector<RunSpec> specs = {trainingRun("mcf")};
    for (const std::string &name : names)
        specs.push_back(characterizationRun(name));
    const std::vector<SampleTrace> traces = runTraces(specs);

    const SampleTrace &mcf_train = traces[0];

    auto l3 = makeMemoryL3Model();
    l3->train(mcf_train);

    // Model (b): trained on DMA-less inputs of the same trace.
    SampleTrace stripped;
    for (AlignedSample s : mcf_train.rows()) {
        for (CounterSnapshot &snap : s.perCpu) {
            snap[PerfEvent::BusTransactions] -=
                snap[PerfEvent::DmaOtherAccesses];
            snap[PerfEvent::DmaOtherAccesses] = 0.0;
        }
        stripped.add(std::move(s));
    }
    CpuOnlyBusModel no_dma;
    no_dma.train(stripped);

    auto full = makeMemoryBusModel();
    full->train(mcf_train);

    TableWriter table({"workload", "L3-miss (Eq2)", "bus w/o DMA",
                       "bus + DMA (Eq3)"});
    for (size_t w = 0; w < names.size(); ++w) {
        const std::string &name = names[w];
        const SampleTrace &trace = traces[w + 1];
        table.addRow({name,
                      TableWriter::pct(errorOn(*l3, trace, false)),
                      TableWriter::pct(errorOn(no_dma, trace, true)),
                      TableWriter::pct(errorOn(*full, trace, false))});
    }
    table.render(std::cout);
    std::printf("\nExpected shape (paper): Eq3 dominates on "
                "DMA-heavy workloads (mcf at scale, diskload);\n"
                "Eq2 fails there because prefetch, writeback and DMA "
                "traffic are invisible to L3 load misses.\n");
    return 0;
}
