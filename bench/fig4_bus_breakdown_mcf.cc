/**
 * @file
 * Reproduces paper Figure 4: prefetch vs non-prefetch bus
 * transactions on the multi-instance mcf ramp, the trace on which the
 * L3-miss memory model fails. The figure's point: after the failure
 * point, prefetch traffic keeps growing while demand (non-prefetch)
 * traffic does not - and an outside agent (DMA from paging) also
 * loads the memory bus invisibly to the L3-miss count.
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

    std::printf("Figure 4: Prefetch and Non-Prefetch Bus Transactions "
                "- mcf\n(paper: L3-miss model fails once non-CPU "
                "traffic grows; prefetch rises, demand flattens)\n\n");

    // Train the L3-miss model on mesa (the Figure 3 setup), then
    // watch it fail as mcf instances stack up. The two runs are
    // independent, so they share the pool.
    RunSpec mesa_spec = trainingRun("mesa");
    mesa_spec.stagger = 45.0;
    mesa_spec.duration = 500.0;

    RunSpec spec = trainingRun("mcf");
    spec.seed = defaultSeed;
    spec.duration = 420.0;

    const std::vector<SampleTrace> traces =
        runTraces({mesa_spec, spec});
    auto l3_model = makeMemoryL3Model();
    l3_model->train(traces[0]);
    const SampleTrace &trace = traces[1];

    std::printf("%8s  %14s  %14s  %12s  %10s  %10s  %8s\n", "seconds",
                "nonprefetch/s", "prefetch/s", "dma/s", "measured",
                "l3model", "err");
    const std::vector<double> modeled = l3_model->estimateTrace(trace);
    const std::vector<double> &measured =
        trace.measuredColumn(Rail::Memory);
    for (size_t i = 0; i < trace.size(); i += 10) {
        const AlignedSample s = trace.row(i);
        const double bus =
            s.totalCount(PerfEvent::BusTransactions) / s.interval;
        const double prefetch =
            s.totalCount(PerfEvent::PrefetchTransactions) / s.interval;
        const double dma =
            s.totalCount(PerfEvent::DmaOtherAccesses) / s.interval;
        std::printf("%8.0f  %14.3e  %14.3e  %12.3e  %10.2f  %10.2f  "
                    "%7.1f%%\n",
                    s.time, bus - prefetch, prefetch, dma, measured[i],
                    modeled[i],
                    (modeled[i] - measured[i]) / measured[i] * 100.0);
    }

    std::printf("\nL3-miss model average error on mcf: %.2f%% "
                "(vs ~1%% on its mesa training trace)\n",
                averageError(modeled, measured) * 100.0);

    // The failure signature: underestimation grows with instances.
    const size_t half = trace.size() / 2;
    std::vector<double> m1(modeled.begin(), modeled.begin() + half);
    std::vector<double> g1(measured.begin(), measured.begin() + half);
    std::vector<double> m2(modeled.begin() + half, modeled.end());
    std::vector<double> g2(measured.begin() + half, measured.end());
    std::printf("first-half error: %.2f%%   second-half error: %.2f%%\n",
                averageError(m1, g1) * 100.0,
                averageError(m2, g2) * 100.0);
    return 0;
}
