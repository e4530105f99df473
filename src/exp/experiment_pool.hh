/**
 * @file
 * Deterministic parallel experiment engine.
 *
 * An ExperimentPool fans a batch of independent jobs - typically one
 * fully self-contained System simulation per workload x config - over
 * std::thread workers. Determinism contract:
 *
 *  - each job must be self-contained: it builds its own System (one
 *    RNG stream tree per master seed) and shares no mutable state
 *    with other jobs;
 *  - jobs are identified by index and write their result into a
 *    dedicated slot, so results come back in submission order
 *    regardless of which worker ran which job or in what order;
 *  - the job function itself is never given worker identity, so a
 *    batch run with 1 worker and with N workers produces bit-identical
 *    results.
 *
 * Worker count resolution: an explicit count wins, else the TDP_JOBS
 * environment variable, else the hardware concurrency.
 *
 * Helper threads: the caller of forEach() is one worker; the other
 * min(jobs(), n) - 1 are helper threads. Helpers are started on first
 * need and then parked between calls, in one set shared by every pool
 * of the process, so a sweep that calls a pool once per pass pays a
 * wake-up per pass rather than a thread start and join per worker,
 * and two pools alive at once reuse the same threads (and their
 * allocator arenas). The set only grows to the most helpers that
 * calls running at the same time have needed. A child process forked
 * after helpers started starts its own on its first call.
 *
 * Re-entrancy: one call at a time per pool dispatches to helpers. A
 * call made on a pool while another call on it is in progress - from
 * inside one of its own jobs, or from another thread - runs inline on
 * its caller's thread, with the results and error reporting of a
 * 1-worker pool.
 */

#ifndef TDP_EXP_EXPERIMENT_POOL_HH
#define TDP_EXP_EXPERIMENT_POOL_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

namespace tdp {

/** Fans independent, index-addressed jobs across worker threads. */
class ExperimentPool
{
  public:
    /**
     * @param jobs worker count; 0 resolves via defaultJobs(). A pool
     *        with one worker runs everything inline on the caller's
     *        thread (the reference serial path).
     */
    explicit ExperimentPool(int jobs = 0);

    /** Resolved worker count (>= 1). */
    int jobs() const { return jobs_; }

    /**
     * Default worker count: TDP_JOBS when it is wholly a positive
     * integer (anything else is warned about and ignored), else
     * std::thread::hardware_concurrency().
     */
    static int defaultJobs();

    /**
     * Run fn(i) for every i in [0, n), blocking until all jobs
     * finish. The caller works alongside up to min(jobs(), n) - 1
     * helpers. Jobs are claimed from an atomic cursor, so scheduling
     * is dynamic but job identity (and thus behaviour) never depends
     * on the worker. If any job throws, the exception of the
     * lowest-indexed failing job is rethrown after all workers have
     * drained (deterministic error reporting). A call made while
     * another call on this pool is in progress runs inline (see the
     * file comment).
     */
    void forEach(size_t n, const std::function<void(size_t)> &fn) const;

    /**
     * Run fn(i) -> R for every i in [0, n) and return the results in
     * index order. R must be default-constructible and movable.
     */
    template <typename R, typename Fn>
    std::vector<R>
    map(size_t n, Fn &&fn) const
    {
        std::vector<R> results(n);
        forEach(n, [&](size_t i) { results[i] = fn(i); });
        return results;
    }

  private:
    int jobs_;

    /** True while a call on this pool runs on helpers. */
    mutable std::atomic<bool> dispatching_{false};
};

} // namespace tdp

#endif // TDP_EXP_EXPERIMENT_POOL_HH
