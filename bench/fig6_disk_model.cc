/**
 * @file
 * Reproduces paper Figure 6: the disk power model (Equation 4,
 * interrupts + DMA) on the synthetic disk workload. The paper reports
 * 1.75% average error computed after subtracting the 21.6 W idle (DC)
 * disk power.
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

    std::printf("Figure 6: Disk Power Model (DMA+Interrupt) - "
                "synthetic disk workload\n"
                "(paper: 1.75%% average error on the DC-subtracted "
                "dynamic power)\n\n");

    RunSpec spec = characterizationRun("diskload");
    spec.duration = 190.0;
    spec.skip = 0.0;
    const std::vector<SampleTrace> traces =
        runTraces({trainingRun("diskload"), spec});

    DiskPowerModel model;
    model.train(traces[0]);
    std::printf("%s\n\n", model.describe().c_str());

    const SampleTrace &trace = traces[1];

    std::printf("%8s  %10s  %10s\n", "seconds", "measured", "modeled");
    const std::vector<double> modeled = model.estimateTrace(trace);
    const std::vector<double> &measured =
        trace.measuredColumn(Rail::Disk);
    for (size_t i = 0; i < trace.size(); i += 4)
        std::printf("%8.0f  %10.3f  %10.3f\n", trace.time(i), measured[i],
                    modeled[i]);

    std::printf("\nraw average error:           %.3f%%\n",
                averageError(modeled, measured) * 100.0);
    std::printf("DC-subtracted average error: %.2f%% (paper: 1.75%%, "
                "DC = %.1f W)\n",
                averageErrorAboveDc(modeled, measured,
                                    diskIdleDcWatts) *
                    100.0,
                diskIdleDcWatts);

    // The all-samples DC-subtracted number is dominated by near-idle
    // samples whose dynamic power is within the sensor noise floor;
    // restricting to samples with >= 0.3 W of dynamic activity gives
    // the tracking quality the paper's figure shows.
    std::vector<double> m_act, g_act;
    for (size_t i = 0; i < measured.size(); ++i) {
        if (measured[i] - diskIdleDcWatts >= 0.3) {
            m_act.push_back(modeled[i]);
            g_act.push_back(measured[i]);
        }
    }
    if (!m_act.empty()) {
        std::printf("DC-subtracted error, active samples only "
                    "(>=0.3 W dynamic): %.2f%% over %zu samples\n",
                    averageErrorAboveDc(m_act, g_act, diskIdleDcWatts) *
                        100.0,
                    m_act.size());
    }
    return 0;
}
