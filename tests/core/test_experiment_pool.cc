/**
 * @file
 * Tests for the parallel experiment engine: scheduling semantics of
 * ExperimentPool and the determinism contract — a multi-worker sweep
 * must produce bit-identical results to the serial one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/estimator.hh"
#include "core/validator.hh"
#include "exp/experiment_pool.hh"
#include "platform/server.hh"
#include "workloads/suite.hh"

namespace tdp {
namespace {

TEST(ExperimentPool, MapReturnsResultsInIndexOrder)
{
    ExperimentPool pool(4);
    const std::vector<int> out =
        pool.map<int>(23, [](size_t i) { return static_cast<int>(i) * 3 + 1; });
    ASSERT_EQ(out.size(), 23u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 3 + 1);
}

TEST(ExperimentPool, ForEachVisitsEveryIndexExactlyOnce)
{
    ExperimentPool pool(4);
    std::vector<std::atomic<int>> visits(100);
    pool.forEach(visits.size(),
                 [&](size_t i) { visits[i].fetch_add(1); });
    for (const std::atomic<int> &v : visits)
        EXPECT_EQ(v.load(), 1);
}

TEST(ExperimentPool, MoreWorkersThanJobsIsFine)
{
    ExperimentPool pool(16);
    const std::vector<int> out =
        pool.map<int>(3, [](size_t i) { return static_cast<int>(i); });
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
}

TEST(ExperimentPool, ZeroJobsRunsNothing)
{
    ExperimentPool pool(4);
    int calls = 0;
    pool.forEach(0, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ExperimentPool, DefaultJobsIsPositive)
{
    EXPECT_GE(ExperimentPool::defaultJobs(), 1);
    EXPECT_GE(ExperimentPool().jobs(), 1);
    EXPECT_EQ(ExperimentPool(3).jobs(), 3);
}

TEST(ExperimentPool, LowestIndexExceptionWinsAndOthersComplete)
{
    ExperimentPool pool(4);
    std::atomic<int> completed{0};
    try {
        pool.forEach(8, [&](size_t i) {
            if (i == 5 || i == 2)
                throw std::runtime_error("job " + std::to_string(i));
            completed.fetch_add(1);
        });
        FAIL() << "expected the job exception to propagate";
    } catch (const std::runtime_error &e) {
        // Deterministic pick: the failure with the lowest job index.
        EXPECT_STREQ(e.what(), "job 2");
    }
    // A failure must not abort the rest of the sweep.
    EXPECT_EQ(completed.load(), 6);
}

TEST(ExperimentPool, SerialPathPropagatesExceptions)
{
    ExperimentPool pool(1);
    EXPECT_THROW(pool.forEach(3,
                              [](size_t i) {
                                  if (i == 1)
                                      throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
}

/**
 * A number unique to the calling thread for the process's lifetime;
 * unlike std::thread::id, never reused by a later thread.
 */
int
threadSerial()
{
    static std::atomic<int> next{0};
    thread_local const int serial = next.fetch_add(1);
    return serial;
}

TEST(ExperimentPool, WorkersPersistAcrossCalls)
{
    // More workers than jobs: helpers are started only as a call
    // needs them, then kept, so 40 calls of 4 jobs see at most 4
    // threads (the caller and 3 helpers), not a fresh set per call.
    ExperimentPool pool(16);
    std::mutex mutex;
    std::set<int> serials;
    for (int call = 0; call < 40; ++call) {
        pool.forEach(4, [&](size_t) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            std::lock_guard<std::mutex> lock(mutex);
            serials.insert(threadSerial());
        });
    }
    EXPECT_GT(serials.size(), 1u);
    EXPECT_LE(serials.size(), 4u);
}

TEST(ExperimentPool, NestedForEachRunsInline)
{
    ExperimentPool pool(4);
    std::vector<std::atomic<int>> visits(4 * 5);
    std::atomic<int> offThread{0};
    pool.forEach(4, [&](size_t outer) {
        const std::thread::id self = std::this_thread::get_id();
        pool.forEach(5, [&](size_t inner) {
            // Long enough that helpers, were there any, would claim
            // some of the jobs.
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            if (std::this_thread::get_id() != self)
                offThread.fetch_add(1);
            visits[outer * 5 + inner].fetch_add(1);
        });
    });
    for (const std::atomic<int> &v : visits)
        EXPECT_EQ(v.load(), 1);
    EXPECT_EQ(offThread.load(), 0);
}

TEST(ExperimentPool, ConcurrentCallersEachVisitEveryIndexOnce)
{
    // Two callers race on one pool (one of them runs inline) while a
    // third dispatches on another pool to the shared helpers.
    ExperimentPool shared(4);
    ExperimentPool other(3);
    constexpr size_t n = 300;
    std::vector<std::atomic<int>> visits[3] = {
        std::vector<std::atomic<int>>(n), std::vector<std::atomic<int>>(n),
        std::vector<std::atomic<int>>(n)};
    std::atomic<bool> go{false};
    auto caller = [&](int k, const ExperimentPool &pool) {
        while (!go.load())
            std::this_thread::yield();
        for (int round = 0; round < 10; ++round)
            pool.forEach(n, [&](size_t i) { visits[k][i].fetch_add(1); });
    };
    std::thread first(caller, 0, std::cref(shared));
    std::thread second(caller, 1, std::cref(shared));
    std::thread third(caller, 2, std::cref(other));
    go.store(true);
    first.join();
    second.join();
    third.join();
    for (const auto &side : visits)
        for (const std::atomic<int> &v : side)
            EXPECT_EQ(v.load(), 10);
}

TEST(ExperimentPool, LowestIndexExceptionWinsAfterReuse)
{
    ExperimentPool pool(4);
    std::atomic<int> completed{0};
    pool.forEach(16, [&](size_t) { completed.fetch_add(1); });
    auto failingAt = [&](size_t a, size_t b) -> std::string {
        try {
            pool.forEach(12, [&](size_t i) {
                if (i == a || i == b)
                    throw std::runtime_error("job " + std::to_string(i));
                completed.fetch_add(1);
            });
        } catch (const std::runtime_error &e) {
            return e.what();
        }
        return "no exception";
    };
    EXPECT_EQ(failingAt(9, 4), "job 4");
    // A later batch starts with no failure recorded.
    EXPECT_EQ(failingAt(11, 7), "job 7");
    pool.forEach(16, [&](size_t) { completed.fetch_add(1); });
    EXPECT_EQ(completed.load(), 16 + 10 + 10 + 16);
}

TEST(ExperimentPool, PoolsShareHelpers)
{
    // Pools alive at the same time, called one after another, run on
    // the same parked helpers: one pool's idle threads (and their
    // allocator arenas) serve the next pool's call.
    const ExperimentPool first(4);
    std::mutex mutex;
    std::set<int> serials;
    auto record = [&](size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::lock_guard<std::mutex> lock(mutex);
        serials.insert(threadSerial());
    };
    for (int call = 0; call < 10; ++call) {
        const ExperimentPool second(4);
        first.forEach(4, record);
        second.forEach(4, record);
    }
    EXPECT_GT(serials.size(), 1u);
    EXPECT_LE(serials.size(), 4u);
}

/**
 * A child forked after the parent's helpers started has none of those
 * threads: its first call starts its own instead of waiting on them.
 */
TEST(PoolAfterFork, ChildStartsItsOwnHelpers)
{
    const ExperimentPool pool(4);
    pool.forEach(4, [](size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        std::atomic<int> visited{0};
        pool.forEach(8, [&](size_t) { visited.fetch_add(1); });
        ::_exit(visited.load() == 8 ? 0 : 1);
    }
    // A child stuck waiting on its parent's helpers is killed after
    // 30 s rather than hanging the suite.
    int status = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (::waitpid(pid, &status, WNOHANG) == 0) {
        if (std::chrono::steady_clock::now() > deadline) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            FAIL() << "the forked child's pool call never returned";
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

/**
 * Run the paper's 12-workload characterisation sweep with the given
 * worker count and return the per-workload, per-rail model-error
 * table. Jobs are index-addressed, so any worker count must yield
 * bit-identical numbers.
 */
std::vector<ValidationResult>
sweepModelErrors(int workers)
{
    const std::vector<std::string> names = paperWorkloadOrder();

    // Fixed plausible coefficients: the sweep compares worker counts
    // against each other, not against the paper, so training runs
    // would only add simulation time.
    SystemPowerEstimator est = SystemPowerEstimator::makePaperModelSet();
    est.model(Rail::Cpu).setCoefficients({37.0, 26.45, 4.31});
    est.model(Rail::Memory).setCoefficients({27.9, 5.2e-4, 4.8e-9});
    est.model(Rail::Disk).setCoefficients({21.6, 2.5e6, 0.0, 5.3e3, 0.0});
    est.model(Rail::Io).setCoefficients({32.6, 3.1e7, 0.0});
    est.model(Rail::Chipset).setCoefficients({19.9});

    ExperimentPool pool(workers);
    const std::vector<SampleTrace> traces =
        pool.map<SampleTrace>(names.size(), [&](size_t i) {
            Server server(0x5eed2007);
            if (names[i] != "idle")
                server.runner().launchStaggered(names[i], 4, 0.25, 0.5);
            server.run(12.0);
            return server.rig().collect().slice(2.0, 13.0);
        });

    const Validator validator(est, 0.0);
    std::vector<ValidationResult> results;
    results.reserve(names.size());
    for (size_t i = 0; i < names.size(); ++i)
        results.push_back(validator.validate(names[i], traces[i]));
    return results;
}

TEST(ExperimentPool, TwelveWorkloadSweepIsBitIdenticalAcrossWorkerCounts)
{
    const std::vector<ValidationResult> serial = sweepModelErrors(1);
    const std::vector<ValidationResult> parallel = sweepModelErrors(4);

    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), paperWorkloadOrder().size());
    for (size_t w = 0; w < serial.size(); ++w) {
        EXPECT_EQ(serial[w].workload, parallel[w].workload);
        for (int r = 0; r < numRails; ++r) {
            const Rail rail = static_cast<Rail>(r);
            // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is
            // bit-identical, not merely close.
            EXPECT_EQ(serial[w].error(rail), parallel[w].error(rail))
                << serial[w].workload << " rail " << r;
        }
    }
}

} // namespace
} // namespace tdp
