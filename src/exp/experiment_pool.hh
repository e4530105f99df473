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
 */

#ifndef TDP_EXP_EXPERIMENT_POOL_HH
#define TDP_EXP_EXPERIMENT_POOL_HH

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
     * finish. Jobs are claimed from an atomic cursor, so scheduling
     * is dynamic but job identity (and thus behaviour) never depends
     * on the worker. If any job throws, the exception of the
     * lowest-indexed failing job is rethrown after all workers have
     * drained (deterministic error reporting).
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
};

} // namespace tdp

#endif // TDP_EXP_EXPERIMENT_POOL_HH
