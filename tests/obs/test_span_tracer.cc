/**
 * @file
 * SpanTracer tests: trace-event JSON output (validated with Python's
 * stdlib JSON parser when available), ring overflow accounting, and
 * the disabled fast path of TraceSpan.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/span_tracer.hh"

namespace {

using namespace tdp;
using namespace tdp::obs;

/** Read a whole file into a string. */
std::string
slurp(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    std::ostringstream os;
    os << file.rdbuf();
    return os.str();
}

/** True when `python3` can run (to validate JSON with json.tool). */
bool
havePython3()
{
    return std::system("python3 -c pass >/dev/null 2>&1") == 0;
}

/** Exit status of `python3 -m json.tool` over the file. */
int
pythonValidateJson(const std::string &path)
{
    const std::string cmd =
        "python3 -m json.tool < '" + path + "' >/dev/null 2>&1";
    return std::system(cmd.c_str());
}

TEST(SpanTracer, DisabledByDefault)
{
    SpanTracer tracer;
    EXPECT_FALSE(tracer.enabled());
    tracer.record("cat", "name", 0.0, 1.0);
    EXPECT_EQ(tracer.stats().recorded, 0u);
    // Flushing with no output configured is a harmless no-op.
    EXPECT_TRUE(tracer.flush());
}

TEST(SpanTracer, FlushWritesLoadableTraceJson)
{
    const std::string path =
        testing::TempDir() + "tdp_test_trace.json";
    SpanTracer tracer;
    tracer.setOutput(path);
    ASSERT_TRUE(tracer.enabled());

    tracer.record("sim", "quantum_batch", 10.0, 5.0, {"quanta", 1000.0},
                  {"events", 42.0});
    tracer.record("exp", "task:0", 0.0, 20.0);
    tracer.record("cache", "lookup", 30.0, 1.5);
    EXPECT_EQ(tracer.stats().recorded, 3u);

    ASSERT_TRUE(tracer.flush());
    const std::string json = slurp(path);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"quantum_batch\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"quanta\":1000,\"events\":42}"),
              std::string::npos);
    // Events are sorted by start time: task:0 first.
    EXPECT_LT(json.find("task:0"), json.find("quantum_batch"));

    // Flushing clears the buffers but keeps recording on.
    EXPECT_EQ(tracer.stats().buffered, 0u);
    EXPECT_TRUE(tracer.enabled());

    if (!havePython3()) {
        std::remove(path.c_str());
        GTEST_SKIP() << "python3 unavailable, JSON not re-validated";
    }
    EXPECT_EQ(pythonValidateJson(path), 0)
        << "json.tool rejected " << path;
    std::remove(path.c_str());
}

TEST(SpanTracer, RingOverflowDropsOldest)
{
    const std::string path =
        testing::TempDir() + "tdp_test_trace_overflow.json";
    SpanTracer tracer;
    tracer.setRingCapacity(4);
    tracer.setOutput(path);

    for (int i = 0; i < 10; ++i)
        tracer.record("t", "span", static_cast<double>(i), 1.0);

    const SpanTracer::Stats stats = tracer.stats();
    EXPECT_EQ(stats.recorded, 10u);
    EXPECT_EQ(stats.buffered, 4u);
    EXPECT_EQ(stats.dropped, 6u);

    ASSERT_TRUE(tracer.flush());
    const std::string json = slurp(path);
    // The survivors are the newest four spans (ts 6..9 us).
    EXPECT_EQ(json.find("\"ts\":5"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":9"), std::string::npos);
    std::remove(path.c_str());
}

TEST(SpanTracer, TraceSpanUsesGlobalTracer)
{
    const std::string path =
        testing::TempDir() + "tdp_test_trace_global.json";
    SpanTracer &tracer = SpanTracer::global();
    tracer.setOutput(path);
    {
        TraceSpan span("test", "scoped");
        span.arg("n", 7.0);
    }
    EXPECT_GE(tracer.stats().recorded, 1u);
    ASSERT_TRUE(tracer.flush());
    const std::string json = slurp(path);
    EXPECT_NE(json.find("\"scoped\""), std::string::npos);
    EXPECT_NE(json.find("\"n\":7"), std::string::npos);

    // Disable again so later tests (and suites) run untraced.
    tracer.setOutput("");
    EXPECT_FALSE(tracer.enabled());
    {
        TraceSpan span("test", "ignored");
    }
    EXPECT_EQ(tracer.stats().buffered, 0u);
    std::remove(path.c_str());
}

} // namespace
