/**
 * @file
 * Reproduces paper Figure 5: the memory-bus-transaction model
 * (Equation 3, including DMA traffic) on the same multi-instance mcf
 * trace where the L3-miss model fails. Paper: 2.2% average error.
 */

#include <cstdio>

#include "core/model.hh"
#include "stats/metrics.hh"

#include "common/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace tdp;
    using namespace tdp::bench;

    initBench(argc, argv);

    std::printf("Figure 5: Memory Power Model (Bus Transactions) - mcf "
                "(paper: average error 2.2%%)\n\n");

    // Train on the staggered mcf training realisation, validate on a
    // different seed of the same protocol (the paper's setup). The
    // two independent runs share the pool.
    RunSpec spec = trainingRun("mcf");
    spec.seed = defaultSeed;
    spec.duration = 420.0;
    const std::vector<SampleTrace> traces =
        runTraces({trainingRun("mcf"), spec});

    auto model = makeMemoryBusModel();
    model->train(traces[0]);
    std::printf("%s\n\n", model->describe().c_str());

    const SampleTrace &trace = traces[1];

    std::printf("%8s  %10s  %10s\n", "seconds", "measured", "modeled");
    const std::vector<double> modeled = model->estimateTrace(trace);
    const std::vector<double> &measured =
        trace.measuredColumn(Rail::Memory);
    for (size_t i = 0; i < trace.size(); i += 10)
        std::printf("%8.0f  %10.2f  %10.2f\n", trace.time(i), measured[i],
                    modeled[i]);

    std::printf("\naverage error: %.2f%% (paper: 2.2%%)\n",
                averageError(modeled, measured) * 100.0);
    return 0;
}
