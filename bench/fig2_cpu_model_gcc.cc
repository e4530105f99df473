/**
 * @file
 * Reproduces paper Figure 2: measured vs modeled total CPU power for
 * eight gcc threads started at 30-second intervals (the SMP CPU
 * model's training-style trace). The paper reports 3.1% average error
 * and saturation after four threads (gcc is CPU-bound, so the first
 * four threads land on distinct packages).
 */

#include <cstdio>

#include "core/validator.hh"
#include "stats/metrics.hh"

#include "common/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace tdp;
    using namespace tdp::bench;

    initBench(argc, argv);

    std::printf("Figure 2: Four CPU Power Model - gcc "
                "(paper: average error 3.1%%)\n\n");

    SystemPowerEstimator estimator = trainPaperEstimator();

    RunSpec spec = trainingRun("gcc");
    spec.seed = defaultSeed; // validation realisation, not training's
    const SampleTrace trace = runTraces({spec})[0];

    const auto modeled = estimator.modeledColumn(trace, Rail::Cpu);
    const auto &measured = trace.measuredColumn(Rail::Cpu);

    std::printf("%8s  %10s  %10s\n", "seconds", "measured", "modeled");
    for (size_t i = 0; i < trace.size(); i += 5) {
        std::printf("%8.0f  %10.1f  %10.1f\n", trace.time(i),
                    measured[i], modeled[i]);
    }

    std::printf("\naverage error: %.2f%% (paper: 3.1%%)\n",
                averageError(modeled, measured) * 100.0);
    std::printf("correlation:   %.4f\n", pearson(modeled, measured));
    return 0;
}
