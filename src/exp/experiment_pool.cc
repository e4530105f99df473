/**
 * @file
 * Implementation of the parallel experiment engine.
 */

#include "exp/experiment_pool.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "obs/span_tracer.hh"
#include "obs/stats_registry.hh"

namespace tdp {

namespace {

/** One dispatched call's jobs, cursor and first failure. */
struct Batch
{
    Batch(const std::function<void(size_t)> &job, size_t count,
          int jobs)
        : fn(job), n(count), firstFailed(count)
    {
        // Telemetry: per-task spans and a task-duration histogram.
        // Ids are resolved once per batch (cold), updates land in the
        // worker's own lock-free shard; with both sinks disabled the
        // per-task cost is two relaxed loads.
        collecting = stats.enabled();
        if (collecting) {
            stats.addNamed("exp.pool.batches", 1);
            stats.setNamed("exp.pool.jobs", static_cast<double>(jobs));
            tasksId = stats.counter("exp.pool.tasks");
            taskUsId = stats.histogram("exp.pool.task_us");
        }
        tracing = obs::SpanTracer::global().enabled();
    }

    /** Run job @p i with its span and duration sample. */
    void
    invoke(size_t i) const
    {
        obs::TraceSpan span(
            "exp", tracing ? formatString("task:%zu", i) : std::string());
        if (!collecting) {
            fn(i);
            return;
        }
        const auto t0 = std::chrono::steady_clock::now();
        fn(i);
        const auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        stats.add(tasksId, 1);
        stats.observe(taskUsId, static_cast<uint64_t>(us));
    }

    /** Claim and run jobs until the cursor passes n. */
    void
    drain()
    {
        while (true) {
            const size_t i = cursor.fetch_add(1);
            if (i >= n)
                return;
            try {
                invoke(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(failureMutex);
                if (i < firstFailed) {
                    firstFailed = i;
                    firstError = std::current_exception();
                }
            }
        }
    }

    const std::function<void(size_t)> &fn;
    const size_t n;
    obs::StatsRegistry &stats = obs::StatsRegistry::global();
    bool collecting = false;
    bool tracing = false;
    obs::StatId tasksId;
    obs::StatId taskUsId;
    std::atomic<size_t> cursor{0};
    std::mutex failureMutex;
    size_t firstFailed;
    std::exception_ptr firstError;
    /** Helpers handed this batch that have not left it. */
    size_t running = 0;
};

/**
 * The process's helper threads, shared by every pool. Each helper
 * parks on its own condition variable until a call hands it a batch,
 * drains that batch's cursor, then parks again on top of the idle
 * stack, so back-to-back calls wake the same threads. Leaked on
 * purpose, like StatsRegistry::global(): parked helpers outlive every
 * pool and wait out process exit.
 */
class Helpers
{
  public:
    static Helpers &
    global()
    {
        static Helpers *helpers = new Helpers();
        return *helpers;
    }

    /**
     * Hand @p batch to @p count helpers, starting any the set lacks.
     * When a thread cannot be started, fewer helpers run the batch
     * (the caller drains what is left), with a warning.
     */
    void
    dispatch(Batch &batch, size_t count)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (pid_ != ::getpid()) {
            // A forked child has none of its parent's threads; their
            // records are left behind unjoined.
            for (std::unique_ptr<Helper> &helper : all_)
                static_cast<void>(helper.release());
            all_.clear();
            idle_.clear();
            pid_ = ::getpid();
        }
        for (size_t k = 0; k < count; ++k) {
            Helper *helper = nullptr;
            if (!idle_.empty()) {
                helper = idle_.back();
                idle_.pop_back();
            } else {
                all_.push_back(std::make_unique<Helper>());
                helper = all_.back().get();
                try {
                    helper->thread =
                        std::thread([this, helper] { run(*helper); });
                } catch (const std::system_error &e) {
                    all_.pop_back();
                    warn("ExperimentPool: cannot start a helper thread "
                         "(%s); running with %zu",
                         e.what(), k);
                    return;
                }
            }
            helper->batch = &batch;
            ++batch.running;
            helper->wake.notify_one();
        }
    }

    /** Block until every helper handed @p batch has left it. */
    void
    await(Batch &batch)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        left_.wait(lock, [&] { return batch.running == 0; });
    }

  private:
    struct Helper
    {
        std::condition_variable wake;
        /** The batch to drain; null while parked (mutex_). */
        Batch *batch = nullptr;
        std::thread thread;
    };

    void
    run(Helper &helper)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (true) {
            helper.wake.wait(lock, [&] { return helper.batch != nullptr; });
            Batch &batch = *helper.batch;
            lock.unlock();
            batch.drain();
            lock.lock();
            helper.batch = nullptr;
            idle_.push_back(&helper);
            // The caller may destroy the batch once this reaches 0.
            if (--batch.running == 0)
                left_.notify_all();
        }
    }

    /**
     * Guards the helpers' batch pointers, each batch's running count
     * and the lists below.
     */
    std::mutex mutex_;
    /** Callers wait here for their batch's helpers to leave. */
    std::condition_variable left_;
    /** Every helper started in this process. */
    std::vector<std::unique_ptr<Helper>> all_;
    /** Parked helpers; the most recently parked last. */
    std::vector<Helper *> idle_;
    /** The process the helpers in all_ run in. */
    pid_t pid_ = ::getpid();
};

} // namespace

ExperimentPool::ExperimentPool(int jobs)
    : jobs_(jobs > 0 ? jobs : defaultJobs())
{
}

int
ExperimentPool::defaultJobs()
{
    if (const char *env = std::getenv("TDP_JOBS")) {
        char *end = nullptr;
        const long parsed = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && parsed > 0 &&
            parsed <= std::numeric_limits<int>::max())
            return static_cast<int>(parsed);
        warn("TDP_JOBS='%s' is not a positive integer; ignoring", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

void
ExperimentPool::forEach(size_t n,
                        const std::function<void(size_t)> &fn) const
{
    if (n == 0)
        return;

    Batch batch(fn, n, jobs_);
    const size_t helpers = std::min(static_cast<size_t>(jobs_), n) - 1;
    if (helpers == 0 || dispatching_.exchange(true)) {
        // Reference serial path - also taken by a call nested in a
        // job or racing another call on this pool: same job order,
        // same thread.
        for (size_t i = 0; i < n; ++i)
            batch.invoke(i);
        return;
    }

    Helpers &set = Helpers::global();
    set.dispatch(batch, helpers);
    batch.drain();
    // The batch lives on this stack: wait for its helpers to leave.
    set.await(batch);
    dispatching_.store(false);

    if (batch.firstError)
        std::rethrow_exception(batch.firstError);
}

} // namespace tdp
