/**
 * @file
 * Power phase detection from performance counters (paper section
 * 2.4): counter-derived power estimates segment execution into power
 * phases without any power instrumentation, the capability Isci's
 * phase work motivates and this paper extends to the full system.
 *
 * The demo runs SPECjbb (alternating transaction / garbage-collection
 * phases) and DiskLoad (modify / flush cycles), estimates per-sample
 * subsystem power, and runs a simple online change-point detector on
 * the estimates.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/running_stats.hh"
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

SystemPowerEstimator
trainEstimator()
{
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
    return estimator;
}

/**
 * Online phase detector: exponential moving average with a deviation
 * threshold; a new phase begins when the estimate departs from the
 * running phase mean by more than the threshold.
 */
class PhaseDetector
{
  public:
    explicit PhaseDetector(double threshold_watts)
        : threshold_(threshold_watts)
    {
    }

    /** @return true when a new phase starts at this sample. */
    bool
    step(double watts)
    {
        if (!primed_) {
            mean_ = watts;
            primed_ = true;
            return true;
        }
        if (std::abs(watts - mean_) > threshold_) {
            mean_ = watts;
            ++phases_;
            return true;
        }
        mean_ += 0.25 * (watts - mean_);
        return false;
    }

    int phaseCount() const { return phases_; }

  private:
    double threshold_;
    double mean_ = 0.0;
    bool primed_ = false;
    int phases_ = 0;
};

void
analyse(const std::string &workload, const SystemPowerEstimator &est,
        Rail rail, double threshold, uint64_t seed)
{
    Server server(seed);
    server.runner().launchStaggered(workload, 8, 1.0, 0.0);
    server.run(90.0);
    const SampleTrace trace = server.rig().collect().slice(10.0, 91.0);

    PhaseDetector detector(threshold);
    RunningStats est_stats;
    std::printf("\n%s (%s rail, threshold %.1f W):\n",
                workload.c_str(), railName(rail), threshold);
    for (const AlignedSample &s : trace.rows()) {
        const double watts =
            est.estimate(EventVector::fromSample(s)).rail(rail);
        est_stats.add(watts);
        if (detector.step(watts)) {
            std::printf("  t=%5.0fs  phase change -> %.1f W "
                        "(estimated, counters only)\n",
                        s.time, watts);
        }
    }
    std::printf("  %d phase changes in %zu samples; estimate range "
                "%.1f-%.1f W\n",
                detector.phaseCount(), trace.size(), est_stats.min(),
                est_stats.max());
}

} // namespace

int
main()
{
    std::printf("Counter-based power phase detection "
                "(paper section 2.4)\n");
    const SystemPowerEstimator estimator = trainEstimator();

    // SPECjbb's GC bursts show up on the CPU rail; DiskLoad's
    // modify/flush cycle shows up on the I/O rail.
    analyse("specjbb", estimator, Rail::Cpu, 8.0, 21);
    analyse("diskload", estimator, Rail::Io, 1.0, 22);
    return 0;
}
