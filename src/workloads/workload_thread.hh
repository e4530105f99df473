/**
 * @file
 * The profile-driven workload thread: one implementation executes all
 * of the paper's workloads from their WorkloadProfile data.
 */

#ifndef TDP_WORKLOADS_WORKLOAD_THREAD_HH
#define TDP_WORKLOADS_WORKLOAD_THREAD_HH

#include <string>

#include "common/random.hh"
#include "os/page_cache.hh"
#include "os/thread_context.hh"
#include "workloads/profile.hh"

namespace tdp {

/**
 * A thread animating a WorkloadProfile: advertises the current
 * phase's demand, issues file I/O, dirties page-cache pages, calls
 * sync(), and blocks on I/O completions like a real process.
 */
class WorkloadThread : public ThreadContext
{
  public:
    /**
     * @param system owning system (for RNG stream derivation).
     * @param cache the OS page cache for file I/O.
     * @param profile behaviour description (must outlive the thread).
     * @param name unique thread name, e.g. "gcc.3".
     */
    WorkloadThread(System &system, PageCache &cache,
                   const WorkloadProfile &profile, std::string name);

    const std::string &threadName() const override { return name_; }
    ThreadState state() const override { return state_; }
    const ThreadDemand &demand() const override { return current_; }
    void commit(double uops, Seconds dt) override;
    double footprintMB() const override { return profile_.footprintMB; }
    void start() override;

    /** Profile backing this thread. */
    const WorkloadProfile &profile() const { return profile_; }

    /** Total committed uops. */
    double lifetimeUops() const { return lifetimeUops_; }

    /** Index of the current phase. */
    size_t phaseIndex() const { return phaseIdx_; }

    /** Number of sync() calls issued. */
    int syncCount() const { return syncCount_; }

  private:
    void enterPhase(size_t index);
    const WorkloadPhase &phase() const;
    void issueIo(Seconds dt);

    PageCache &cache_;
    const WorkloadProfile &profile_;
    std::string name_;
    Rng rng_;

    ThreadState state_ = ThreadState::NotStarted;
    size_t phaseIdx_ = 0;
    Seconds phaseElapsed_ = 0.0;
    Seconds sinceSync_ = 0.0;
    double dirtyOutstanding_ = 0.0;
    double pendingReadBytes_ = 0.0;
    double wander_ = 1.0;
    // demandWanderSigma * sqrt(2 dt / tau) for the last dt seen.
    Seconds wanderDt_ = 0.0;
    double wanderStepSigma_ = 0.0;
    ThreadDemand current_;
    double lifetimeUops_ = 0.0;
    int syncCount_ = 0;
};

} // namespace tdp

#endif // TDP_WORKLOADS_WORKLOAD_THREAD_HH
