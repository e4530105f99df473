/**
 * @file
 * Per-CPU power accounting: the shared-server billing use case of
 * paper section 4.2.1 ("billing of compute time in these environments
 * will take account of power consumed by each process... process-level
 * power accounting is essential").
 *
 * Two tenants share the SMP: a compute-heavy one (vortex on CPUs
 * 0 and 2) and a memory-bound one (mcf on CPUs 1 and 3, via placement
 * order). The CPU model's per-package attribution splits the CPU rail
 * between them; the energy bill is integrated per tenant.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/trainer.hh"
#include "platform/server.hh"

using namespace tdp;

namespace {

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
    // Train the CPU model (the only one needed for CPU billing).
    CpuPowerModel cpu_model;
    cpu_model.train(record("gcc", 8, 30.0, 280.0, 1));
    std::printf("CPU model: %s\n\n", cpu_model.describe().c_str());

    // Tenant placement: the scheduler fills distinct packages first,
    // so alternating launches interleave the tenants across CPUs.
    Server server(9);
    auto tenant_a =
        server.runner().launchStaggered("vortex", 2, 1.0, 0.0);
    auto tenant_b = server.runner().launchStaggered("mcf", 2, 1.0, 0.0);
    (void)tenant_a;
    (void)tenant_b;
    // Placement order: vortex.0 -> cpu0, vortex.1 -> cpu1,
    // mcf.2 -> cpu2, mcf.3 -> cpu3.
    const std::vector<std::string> owner = {"vortex", "vortex", "mcf",
                                            "mcf"};

    std::printf("%8s  %9s  %9s  %9s  %9s\n", "seconds", "cpu0",
                "cpu1", "cpu2", "cpu3");

    double joules_vortex = 0.0;
    double joules_mcf = 0.0;
    size_t consumed = 0;
    for (int step = 0; step < 60; ++step) {
        server.run(1.0);
        const SampleTrace &trace = server.rig().collect();
        while (consumed < trace.size()) {
            const AlignedSample s = trace.row(consumed++);
            const EventVector ev = EventVector::fromSample(s);
            double per_cpu[4];
            for (int i = 0; i < 4; ++i) {
                per_cpu[i] = cpu_model.estimateCpu(ev, i);
                (owner[static_cast<size_t>(i)] == "vortex"
                     ? joules_vortex
                     : joules_mcf) += per_cpu[i] * s.interval;
            }
            if (consumed % 10 == 0) {
                std::printf("%8.0f  %8.1fW  %8.1fW  %8.1fW  %8.1fW\n",
                            s.time, per_cpu[0], per_cpu[1], per_cpu[2],
                            per_cpu[3]);
            }
        }
    }

    std::printf("\nEnergy bill over the hour-fraction:\n");
    std::printf("  tenant 'vortex' (CPUs 0-1): %8.0f J\n",
                joules_vortex);
    std::printf("  tenant 'mcf'    (CPUs 2-3): %8.0f J\n", joules_mcf);
    std::printf("\nNote the asymmetry a wall-clock bill would miss: "
                "the compute-bound\ntenant draws more package power "
                "for the same rented time.\n");
    return 0;
}
