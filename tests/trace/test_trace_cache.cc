/**
 * @file
 * Trace cache behaviour: content-addressed key sensitivity (every
 * simulation input must change the fingerprint), hit/miss/store
 * mechanics, the graceful fall-back to re-simulation when an
 * entry is truncated or bit-flipped on disk, and crash safety: a
 * batch killed midway keeps every trace it finished.
 */

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "workloads/profile.hh"

#include "../measure/trace_v2.hh"
#include "../stream/alloc_hook.hh"
#include "common/bench_util.hh"
#include "common/hash.hh"
#include "measure/trace_io.hh"
#include "trace/fingerprint.hh"
#include "trace/trace_cache.hh"

namespace tdp {
namespace {

namespace fs = std::filesystem;
using bench::RunSpec;
using bench::runFingerprint;

/** A scratch cache directory removed when the fixture tears down. */
class TraceCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = fs::temp_directory_path() /
                ("tdp-trace-cache-test-" +
                 std::to_string(::getpid()));
        fs::remove_all(root_);
    }

    void TearDown() override { fs::remove_all(root_); }

    SampleTrace
    tinyTrace() const
    {
        SampleTrace trace;
        AlignedSample sample;
        sample.time = 1.0;
        sample.interval = 1.0;
        sample.perCpu.resize(1);
        sample.perCpu[0][PerfEvent::Cycles] = 2.8e9;
        sample.measuredWatts[0] = 37.5;
        trace.add(sample);
        return trace;
    }

    fs::path root_;
};

/** A cheap spec: fingerprinting never simulates anything. */
RunSpec
baseSpec()
{
    RunSpec spec;
    spec.workload = "gcc";
    spec.instances = 4;
    spec.duration = 60.0;
    spec.skip = 10.0;
    spec.seed = 0x5eed;
    return spec;
}

TEST(RunFingerprintTest, StableForUnchangedSpec)
{
    EXPECT_EQ(runFingerprint(baseSpec()), runFingerprint(baseSpec()));
}

TEST(RunFingerprintTest, EveryRunSpecFieldChangesTheKey)
{
    const uint64_t base = runFingerprint(baseSpec());

    const std::vector<
        std::pair<const char *, std::function<void(RunSpec &)>>>
        mutations = {
            {"workload", [](RunSpec &s) { s.workload = "mcf"; }},
            {"instances", [](RunSpec &s) { s.instances = 5; }},
            {"firstStart", [](RunSpec &s) { s.firstStart = 2.0; }},
            {"stagger", [](RunSpec &s) { s.stagger = 0.25; }},
            {"duration", [](RunSpec &s) { s.duration = 61.0; }},
            {"skip", [](RunSpec &s) { s.skip = 11.0; }},
            {"seed", [](RunSpec &s) { s.seed = 0x5eee; }},
            {"quantum", [](RunSpec &s) { s.quantum *= 2; }},
        };
    for (const auto &[name, mutate] : mutations) {
        RunSpec spec = baseSpec();
        mutate(spec);
        EXPECT_NE(runFingerprint(spec), base)
            << "changing " << name << " did not change the key";
    }
}

TEST(RunFingerprintTest, EveryFaultPlanFieldChangesTheKey)
{
    const uint64_t base = runFingerprint(baseSpec());

    const std::vector<
        std::pair<const char *, std::function<void(FaultPlan &)>>>
        mutations = {
            {"counterWidthBits",
             [](FaultPlan &p) { p.counterWidthBits = 32; }},
            {"dropReadingProb",
             [](FaultPlan &p) { p.dropReadingProb = 0.01; }},
            {"missPulseProb",
             [](FaultPlan &p) { p.missPulseProb = 0.01; }},
            {"duplicatePulseProb",
             [](FaultPlan &p) { p.duplicatePulseProb = 0.01; }},
            {"pulseLatencyMax",
             [](FaultPlan &p) { p.pulseLatencyMax = 0.002; }},
            {"dropBlockProb",
             [](FaultPlan &p) { p.dropBlockProb = 0.01; }},
            {"glitchBlockProb",
             [](FaultPlan &p) { p.glitchBlockProb = 0.01; }},
            {"glitchSpikeWatts",
             [](FaultPlan &p) { p.glitchSpikeWatts = 1000.0; }},
            {"unavailableEvents",
             [](FaultPlan &p) {
                 p.unavailableEvents = {PerfEvent::TlbMisses};
             }},
        };
    for (const auto &[name, mutate] : mutations) {
        RunSpec spec = baseSpec();
        mutate(spec.faults);
        EXPECT_NE(runFingerprint(spec), base)
            << "changing faults." << name
            << " did not change the key";
    }

    // Distinct unavailable-event sets must also hash apart.
    RunSpec one = baseSpec();
    one.faults.unavailableEvents = {PerfEvent::TlbMisses};
    RunSpec other = baseSpec();
    other.faults.unavailableEvents = {PerfEvent::BusTransactions};
    EXPECT_NE(runFingerprint(one), runFingerprint(other));
}

TEST(FingerprintTest, TypeTagsPreventFieldBoundaryCollisions)
{
    // "ab" + "c" vs "a" + "bc": length-prefixed strings keep them
    // distinct.
    Fingerprint a;
    a.mixString("ab");
    a.mixString("c");
    Fingerprint b;
    b.mixString("a");
    b.mixString("bc");
    EXPECT_NE(a.digest(), b.digest());

    // A double and the u64 with the same bit pattern hash apart.
    Fingerprint as_double;
    as_double.mixDouble(1.0);
    Fingerprint as_u64;
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(double));
    const double value = 1.0;
    std::memcpy(&bits, &value, sizeof(bits));
    as_u64.mixU64(bits);
    EXPECT_NE(as_double.digest(), as_u64.digest());
}

TEST_F(TraceCacheTest, StoreThenLookupHits)
{
    TraceCache cache(root_.string());
    const SampleTrace trace = tinyTrace();
    const uint64_t key = 0x1234abcd;

    SampleTrace loaded;
    EXPECT_FALSE(cache.lookup(key, loaded));
    EXPECT_EQ(cache.stats().misses, 1u);

    cache.store(key, trace);
    EXPECT_EQ(cache.stats().stores, 1u);
    ASSERT_TRUE(cache.lookup(key, loaded));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_TRUE(traceBitIdentical(trace, loaded));
}

TEST_F(TraceCacheTest, DifferentKeysAreDifferentEntries)
{
    TraceCache cache(root_.string());
    cache.store(1, tinyTrace());
    SampleTrace loaded;
    EXPECT_FALSE(cache.lookup(2, loaded));
    EXPECT_NE(cache.entryPath(1), cache.entryPath(2));
}

TEST_F(TraceCacheTest, TruncatedEntryFallsBackToMiss)
{
    TraceCache cache(root_.string());
    const uint64_t key = 7;
    cache.store(key, tinyTrace());

    const fs::path path = cache.entryPath(key);
    const uintmax_t size = fs::file_size(path);
    fs::resize_file(path, size / 2);

    SampleTrace loaded;
    EXPECT_FALSE(cache.lookup(key, loaded));
    EXPECT_EQ(cache.stats().rejected, 1u);
}

TEST_F(TraceCacheTest, BitFlippedEntryFallsBackToMiss)
{
    TraceCache cache(root_.string());
    const uint64_t key = 8;
    cache.store(key, tinyTrace());

    const fs::path path = cache.entryPath(key);
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file);
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    file.seekp(size - 5);
    char byte = 0;
    file.seekg(size - 5);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(size - 5);
    file.write(&byte, 1);
    file.close();

    SampleTrace loaded;
    EXPECT_FALSE(cache.lookup(key, loaded));
    EXPECT_EQ(cache.stats().rejected, 1u);
}

TEST_F(TraceCacheTest, KeyMismatchInsideEntryIsRejected)
{
    // An entry whose embedded fingerprint disagrees with its file
    // name (e.g. a hand-renamed file) must not be served.
    TraceCache cache(root_.string());
    cache.store(10, tinyTrace());
    fs::rename(cache.entryPath(10), cache.entryPath(11));

    SampleTrace loaded;
    EXPECT_FALSE(cache.lookup(11, loaded));
    EXPECT_EQ(cache.stats().rejected, 1u);
}

TEST_F(TraceCacheTest, RunTracesFallsBackToSimulationOnCorruptEntry)
{
    // End to end: a corrupt cache entry must not poison runTraces -
    // the spec re-simulates, the result matches an uncached run, and
    // the repaired entry is stored back.
    bench::setTraceCacheRoot("");
    RunSpec spec;
    spec.workload = "idle";
    spec.instances = 0;
    spec.firstStart = 0.0;
    spec.duration = 8.0;
    spec.skip = 2.0;
    const SampleTrace fresh = bench::runTraces({spec})[0];

    bench::setTraceCacheRoot(root_.string());
    ASSERT_NE(bench::traceCache(), nullptr);
    const SampleTrace populate = bench::runTraces({spec})[0];
    EXPECT_TRUE(traceBitIdentical(fresh, populate));
    EXPECT_EQ(bench::traceCache()->stats().stores, 1u);

    // Corrupt the stored entry, then run again: must fall back.
    const fs::path path =
        bench::traceCache()->entryPath(runFingerprint(spec));
    ASSERT_TRUE(fs::exists(path));
    fs::resize_file(path, fs::file_size(path) - 3);

    const SampleTrace recovered = bench::runTraces({spec})[0];
    EXPECT_TRUE(traceBitIdentical(fresh, recovered));
    EXPECT_EQ(bench::traceCache()->stats().rejected, 1u);

    // And the entry was re-stored: a final run is a pure hit.
    const SampleTrace warm = bench::runTraces({spec})[0];
    EXPECT_TRUE(traceBitIdentical(fresh, warm));
    EXPECT_GE(bench::traceCache()->stats().hits, 1u);

    bench::setTraceCacheRoot("");
}

/** Read a whole cache entry. */
std::string
readEntry(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** Replace a cache entry's bytes. */
void
writeEntry(const fs::path &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out);
}

/**
 * Store @p spec's trace, let @p rewrite replace the entry's bytes
 * with an older format's, and rerun: the old entry must be one
 * rejection naming @p version and a bit-identical re-simulation,
 * with no fatal.
 */
void
expectOldEntryResimulated(
    const std::string &root, const std::string &version,
    const std::function<std::string(std::string, const SampleTrace &,
                                    uint64_t)> &rewrite)
{
    bench::setTraceCacheRoot("");
    RunSpec spec;
    spec.workload = "idle";
    spec.instances = 0;
    spec.firstStart = 0.0;
    spec.duration = 6.0;
    spec.skip = 2.0;
    const SampleTrace fresh = bench::runTraces({spec})[0];

    bench::setTraceCacheRoot(root);
    ASSERT_NE(bench::traceCache(), nullptr);
    bench::runTraces({spec});
    const uint64_t key = runFingerprint(spec);
    const fs::path path = bench::traceCache()->entryPath(key);
    const std::string bytes = readEntry(path);
    ASSERT_FALSE(bytes.empty());
    writeEntry(path, rewrite(bytes, fresh, key));

    testing::internal::CaptureStderr();
    const SampleTrace recovered = bench::runTraces({spec})[0];
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_TRUE(traceBitIdentical(fresh, recovered));
    EXPECT_EQ(bench::traceCache()->stats().rejected, 1u);
    EXPECT_NE(log.find("format version " + version + ", expected 3"),
              std::string::npos)
        << log;
    EXPECT_EQ(log.find("fatal"), std::string::npos) << log;

    bench::setTraceCacheRoot("");
}

TEST_F(TraceCacheTest, Version1EntryIsRejectedThenResimulated)
{
    // A version 1 entry (FNV-1a payload checksum) at the entry path is
    // one rejection and a re-simulation: no crash, no fatal.
    expectOldEntryResimulated(
        root_.string(), "1",
        [](std::string bytes, const SampleTrace &, uint64_t) {
            constexpr size_t header_bytes = 52;
            bytes[4] = 1; // version, little-endian u32
            const uint64_t v1_checksum =
                fnv1a64(bytes.data() + header_bytes,
                        bytes.size() - header_bytes);
            for (size_t i = 0; i < 8; ++i)
                bytes[44 + i] = static_cast<char>(v1_checksum >> (8 * i));
            return bytes;
        });
}

TEST_F(TraceCacheTest, Version2EntryIsRejectedThenResimulated)
{
    // A real version 2 entry (row-wise samples, the layout every cache
    // entry had before version 3) is one rejection and a
    // re-simulation.
    expectOldEntryResimulated(
        root_.string(), "2",
        [](std::string, const SampleTrace &trace, uint64_t key) {
            return testutil::traceVersion2Bytes(trace, key);
        });
}

TEST_F(TraceCacheTest, HitAllocationsDoNotDependOnSampleCount)
{
    // A hit decodes column by column: a 2,000-sample entry costs the
    // same number of allocations as a 20-sample one.
    if (!testutil::allocationHookActive())
        GTEST_SKIP() << "sanitizer build: operator new is owned by "
                        "the sanitizer runtime";
    TraceCache cache(root_.string());
    auto trace_of = [](size_t samples) {
        SampleTrace trace;
        AlignedSample sample;
        sample.perCpu.resize(4);
        for (size_t i = 0; i < samples; ++i) {
            sample.time = static_cast<double>(i);
            sample.perCpu[i % 4][PerfEvent::Cycles] = 2.8e9 + i;
            sample.measuredWatts[i % numRails] = 30.0 + i;
            trace.add(sample);
        }
        return trace;
    };
    cache.store(20, trace_of(20));
    cache.store(2000, trace_of(2000));

    auto hit_allocations = [&cache](uint64_t key) {
        SampleTrace loaded;
        const uint64_t before = testutil::allocationCount();
        EXPECT_TRUE(cache.lookup(key, loaded));
        const uint64_t count = testutil::allocationCount() - before;
        EXPECT_EQ(loaded.size(), key);
        return count;
    };
    hit_allocations(20); // first-use registrations, if any
    hit_allocations(2000);
    EXPECT_EQ(hit_allocations(20), hit_allocations(2000));
}

TEST_F(TraceCacheTest, CachedTraceBitIdenticalForEveryWorkload)
{
    // The acceptance gate: for the whole 12-workload suite, a cached
    // trace must be byte-identical to the freshly simulated one.
    const std::vector<std::string> names = workloadProfileNames();
    ASSERT_FALSE(names.empty());

    for (const std::string &name : names) {
        RunSpec spec;
        spec.workload = name;
        spec.instances = 2;
        spec.firstStart = 0.5;
        spec.duration = 12.0;
        spec.skip = 2.0;

        bench::setTraceCacheRoot("");
        const SampleTrace fresh = bench::runTraces({spec})[0];

        bench::setTraceCacheRoot(root_.string());
        const SampleTrace stored = bench::runTraces({spec})[0];
        const SampleTrace cached = bench::runTraces({spec})[0];
        EXPECT_TRUE(traceBitIdentical(fresh, stored)) << name;
        EXPECT_TRUE(traceBitIdentical(fresh, cached)) << name;
    }
    bench::setTraceCacheRoot("");
}

uint64_t
traceDigest(const SampleTrace &trace)
{
    std::ostringstream os;
    writeTraceBinary(os, trace);
    const std::string bytes = os.str();
    return fnv1a64(bytes.data(), bytes.size());
}

std::vector<uint64_t>
digestsOf(const std::vector<SampleTrace> &traces)
{
    std::vector<uint64_t> digests;
    for (const SampleTrace &trace : traces)
        digests.push_back(traceDigest(trace));
    return digests;
}

/**
 * Three short runs, then one long enough to still be simulating when
 * the parent's SIGKILL lands.
 */
std::vector<RunSpec>
killBatch()
{
    std::vector<RunSpec> specs;
    for (const char *workload : {"gcc", "mcf", "mesa"}) {
        RunSpec spec = bench::characterizationRun(workload);
        spec.instances = 2;
        spec.duration = 4.0;
        spec.skip = 1.0;
        specs.push_back(spec);
    }
    RunSpec last = bench::characterizationRun("art");
    last.duration = 120.0;
    last.skip = 1.0;
    specs.push_back(last);
    return specs;
}

/** Published entries under a cache root (temp files excluded). */
size_t
entryCount(const fs::path &root)
{
    size_t count = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(root, ec))
        if (entry.path().extension() == ".tdpt")
            ++count;
    return count;
}

TEST_F(TraceCacheTest, KilledBatchRerunServesFinishedTracesFromCache)
{
    using Clock = std::chrono::steady_clock;
    const std::vector<RunSpec> specs = killBatch();
    const size_t n = specs.size();

    // Cache-off reference digests, one spec at a time so the long
    // run's share of the batch time is known.
    bench::setTraceCacheRoot("");
    bench::setJobs(1);
    std::vector<uint64_t> reference;
    double short_seconds = 0.0;
    double long_seconds = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const auto start = Clock::now();
        reference.push_back(traceDigest(bench::runTraces({specs[i]})[0]));
        const std::chrono::duration<double> took = Clock::now() - start;
        (i + 1 < n ? short_seconds : long_seconds) += took.count();
    }

    // Flush stdio so the child does not replay buffered output.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        bench::setTraceCacheRoot(root_.string());
        bench::setJobs(1);
        bench::runTraces(specs);
        ::_exit(0);
    }

    // Kill the child once its first trace is on disk. Give up halfway
    // through the long run: a batch that stores only at its end has
    // nothing on disk by then.
    const auto deadline =
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(short_seconds +
                                          long_seconds / 2));
    bool stored = false;
    while (!(stored = entryCount(root_) > 0) && Clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    ASSERT_TRUE(stored) << "no trace was stored within "
                        << short_seconds + long_seconds / 2 << " s";
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    const size_t entries = entryCount(root_);
    ASSERT_GE(entries, 1u);
    ASSERT_LE(entries, n - 1);

    // Re-run the batch at one and at four workers, each against its
    // own copy of the killed cache: the finished runs are hits, the
    // rest re-simulate, and every trace matches the reference.
    const fs::path wide = root_.string() + "-wide";
    fs::remove_all(wide);
    fs::copy(root_, wide, fs::copy_options::recursive);
    for (const auto &[cache, workers] :
         {std::pair{root_, 1}, std::pair{wide, 4}}) {
        bench::setTraceCacheRoot(cache.string());
        bench::setJobs(workers);
        EXPECT_EQ(digestsOf(bench::runTraces(specs)), reference)
            << workers << " worker(s)";
        EXPECT_EQ(bench::traceCache()->stats().hits.load(), entries)
            << workers << " worker(s)";
        EXPECT_EQ(entryCount(cache), n) << workers << " worker(s)";
    }
    bench::setTraceCacheRoot("");
    fs::remove_all(wide);
}

} // namespace
} // namespace tdp
