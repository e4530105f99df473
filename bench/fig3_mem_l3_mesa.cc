/**
 * @file
 * Reproduces paper Figure 3: the L3-miss memory power model on a
 * multi-instance mesa ramp. Instances are added over time; memory
 * utilisation rises with each and tapers as the instance count
 * approaches the eight available hardware threads. The L3-miss model
 * is trained on this very trace, reproducing the paper's ~1% error -
 * the setup that later fails on mcf (Figure 4).
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

    std::printf("Figure 3: Memory Power Model (L3 Misses) - mesa "
                "(paper: average error ~1%%)\n\n");

    RunSpec spec = trainingRun("mesa");
    spec.stagger = 45.0;
    spec.duration = 500.0;
    const SampleTrace trace = runTraces({spec})[0];

    auto model = makeMemoryL3Model();
    model->train(trace);
    std::printf("%s\n\n", model->describe().c_str());

    std::printf("%8s  %10s  %10s\n", "seconds", "measured", "modeled");
    const std::vector<double> modeled = model->estimateTrace(trace);
    const std::vector<double> &measured =
        trace.measuredColumn(Rail::Memory);
    for (size_t i = 0; i < trace.size(); i += 10)
        std::printf("%8.0f  %10.2f  %10.2f\n", trace.time(i), measured[i],
                    modeled[i]);

    std::printf("\naverage error: %.2f%% (paper: ~1%%)\n",
                averageError(modeled, measured) * 100.0);
    return 0;
}
