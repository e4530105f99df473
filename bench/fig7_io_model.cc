/**
 * @file
 * Reproduces paper Figure 7: the I/O power model (Equation 5,
 * interrupts) on the synthetic disk workload. The paper reports <1%
 * error on the raw rail and notes the error grows to 32% when the
 * large DC offset (two I/O chips, six PCI-X buses) is subtracted.
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

    std::printf("Figure 7: I/O Power Model (Interrupt) - synthetic "
                "disk workload\n(paper: <1%% average error; 32%% after "
                "subtracting the DC term)\n\n");

    RunSpec spec = characterizationRun("diskload");
    spec.duration = 190.0;
    spec.skip = 0.0;
    const std::vector<SampleTrace> traces =
        runTraces({trainingRun("diskload"), spec});

    auto model = makeIoInterruptModel();
    model->train(traces[0]);
    std::printf("%s\n\n", model->describe().c_str());

    const SampleTrace &trace = traces[1];

    std::printf("%8s  %10s  %10s\n", "seconds", "measured", "modeled");
    const std::vector<double> modeled = model->estimateTrace(trace);
    const std::vector<double> &measured =
        trace.measuredColumn(Rail::Io);
    for (size_t i = 0; i < trace.size(); i += 4)
        std::printf("%8.0f  %10.3f  %10.3f\n", trace.time(i), measured[i],
                    modeled[i]);

    const double dc = model->coefficients()[0];
    std::printf("\nraw average error:           %.3f%% (paper: <1%%)\n",
                averageError(modeled, measured) * 100.0);
    std::printf("DC-subtracted average error: %.1f%% (paper: 32%%, "
                "DC = %.2f W)\n",
                averageErrorAboveDc(modeled, measured, dc) * 100.0, dc);
    return 0;
}
