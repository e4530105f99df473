/**
 * @file
 * Quickstart: build the instrumented server, train the paper's five
 * subsystem models, then estimate complete-system power at runtime
 * from performance counters alone - no power sensing in the loop.
 *
 * This walks the library's whole public API surface in ~100 lines:
 *   Server -> WorkloadRunner -> SampleTrace -> ModelTrainer ->
 *   SystemPowerEstimator -> PowerBreakdown.
 */

#include <cstdio>

#include "core/serialize.hh"
#include "core/trainer.hh"
#include "platform/server.hh"

using namespace tdp;

namespace {

/** Collect an aligned (counters, power) trace for one workload. */
SampleTrace
record(const std::string &workload, int instances, Seconds stagger,
       Seconds duration, uint64_t seed)
{
    Server server(seed);
    if (instances > 0)
        server.runner().launchStaggered(workload, instances, 1.0,
                                        stagger);
    server.run(duration);
    return server.rig().collect();
}

} // namespace

int
main()
{
    std::printf("== 1. Train the five subsystem models "
                "(paper section 3.2.2) ==\n");

    // Each model trains on one high-variation workload trace recorded
    // on the instrumented machine: CPU <- staggered gcc, memory <-
    // staggered mcf, disk+I/O <- the DiskLoad synthetic, chipset <-
    // idle (constant fit).
    SystemPowerEstimator estimator =
        SystemPowerEstimator::makePaperModelSet();
    ModelTrainer trainer;
    trainer.setTrainingTrace(Rail::Cpu,
                             record("gcc", 8, 30.0, 280.0, 1));
    trainer.setTrainingTrace(Rail::Memory,
                             record("mcf", 8, 30.0, 280.0, 2));
    const SampleTrace diskload = record("diskload", 8, 5.0, 160.0, 3);
    trainer.setTrainingTrace(Rail::Disk, diskload);
    trainer.setTrainingTrace(Rail::Io, diskload);
    trainer.setTrainingTrace(Rail::Chipset,
                             record("idle", 0, 0.0, 60.0, 4));
    trainer.train(estimator);
    std::printf("%s\n", estimator.describe().c_str());

    // Models can be persisted and shipped to uninstrumented machines.
    const std::string snapshot = saveModelsToString(estimator);
    std::printf("serialized model set: %zu bytes\n\n",
                snapshot.size());

    std::printf("== 2. Runtime estimation on an unseen workload ==\n");
    std::printf("%8s  %8s  %8s  %8s  %8s  %8s  %8s\n", "seconds",
                "CPU", "Chipset", "Memory", "I/O", "Disk", "Total");

    // A fresh, uninstrumented-in-spirit run: SPECjbb, which no model
    // ever saw. Only the counter samples feed the estimator.
    Server server(42);
    server.runner().launchStaggered("specjbb", 8, 1.0, 0.0);
    for (int step = 0; step < 6; ++step) {
        server.run(10.0);
        const SampleTrace &trace = server.rig().collect();
        if (trace.empty())
            continue;
        const AlignedSample latest = trace.row(trace.size() - 1);
        const PowerBreakdown bd =
            estimator.estimate(EventVector::fromSample(latest));
        std::printf(
            "%8.0f  %8.1f  %8.1f  %8.1f  %8.1f  %8.2f  %8.1f\n",
            latest.time, bd.rail(Rail::Cpu), bd.rail(Rail::Chipset),
            bd.rail(Rail::Memory), bd.rail(Rail::Io),
            bd.rail(Rail::Disk), bd.total());
    }

    std::printf("\n== 3. Check against the hidden ground truth ==\n");
    const SampleTrace &trace = server.rig().collect();
    double modeled = 0.0, measured = 0.0;
    for (const AlignedSample &s : trace.rows()) {
        modeled +=
            estimator.estimate(EventVector::fromSample(s)).total();
        for (int r = 0; r < numRails; ++r)
            measured += s.measured(static_cast<Rail>(r));
    }
    std::printf("mean modeled total:  %.1f W\n"
                "mean measured total: %.1f W  (error %.2f%%)\n",
                modeled / trace.size(), measured / trace.size(),
                (modeled - measured) / measured * 100.0);
    return 0;
}
