/**
 * @file
 * Implementation of the parallel experiment engine.
 */

#include "exp/experiment_pool.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "obs/span_tracer.hh"
#include "obs/stats_registry.hh"

namespace tdp {

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

    // Telemetry: per-task spans and a task-duration histogram. Ids
    // are resolved once per batch (cold), updates land in the
    // worker's own lock-free shard; with both sinks disabled the
    // per-task cost is two relaxed loads.
    obs::StatsRegistry &stats = obs::StatsRegistry::global();
    const bool collecting = stats.enabled();
    obs::StatId tasks_id, task_us_id;
    if (collecting) {
        stats.addNamed("exp.pool.batches", 1);
        stats.setNamed("exp.pool.jobs", static_cast<double>(jobs_));
        tasks_id = stats.counter("exp.pool.tasks");
        task_us_id = stats.histogram("exp.pool.task_us");
    }
    const bool tracing = obs::SpanTracer::global().enabled();
    auto invoke = [&](size_t i) {
        obs::TraceSpan span(
            "exp", tracing ? formatString("task:%zu", i)
                           : std::string());
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
        stats.add(tasks_id, 1);
        stats.observe(task_us_id, static_cast<uint64_t>(us));
    };

    const size_t workers =
        std::min(static_cast<size_t>(jobs_), n);
    if (workers <= 1) {
        // Reference serial path: same job order, same thread.
        for (size_t i = 0; i < n; ++i)
            invoke(i);
        return;
    }

    std::atomic<size_t> cursor{0};
    std::mutex failure_mutex;
    size_t first_failed = n;
    std::exception_ptr first_error;

    auto worker = [&] {
        while (true) {
            const size_t i = cursor.fetch_add(1);
            if (i >= n)
                return;
            try {
                invoke(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(failure_mutex);
                if (i < first_failed) {
                    first_failed = i;
                    first_error = std::current_exception();
                }
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();

    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace tdp
