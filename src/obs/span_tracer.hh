/**
 * @file
 * Low-overhead span tracer emitting Chrome trace-event JSON.
 *
 * Instrumented code opens RAII TraceSpans around interesting phases
 * (experiment-pool tasks, workload runs, simulated quantum batches,
 * trainer fits, aligner drains, cache lookups). Each completed span
 * is a fixed-size POD pushed into the recording thread's ring buffer;
 * flush() merges the rings, sorts by start time and writes one
 * `{"traceEvents": [...]}` document that Perfetto and
 * chrome://tracing load directly (complete events, "ph":"X",
 * microsecond timestamps).
 *
 * Cost model: with no output configured (the default) a TraceSpan is
 * one relaxed atomic load and a branch - no clock reads, no writes.
 * When enabled, recording takes the ring's own mutex; the owner
 * thread is the only steady-state contender, so the lock is
 * uncontended and the write is a fixed-size copy. Rings overwrite
 * their oldest entries when full and count the overwritten spans, so
 * tracing never allocates unboundedly or blocks the simulation.
 *
 * The output file is written atomically (temp + rename): a crashed
 * run can leave no half-written trace behind.
 */

#ifndef TDP_OBS_SPAN_TRACER_HH
#define TDP_OBS_SPAN_TRACER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tdp {
namespace obs {

/** Maximum numeric arguments carried by one span. */
constexpr int maxSpanArgs = 2;

/** One numeric span argument shown in the viewer. */
struct SpanArg
{
    std::string_view name;
    double value = 0.0;
};

/** One completed span, sized for cheap ring writes. */
struct SpanEvent
{
    /** Microseconds since tracer start. */
    double startUs = 0.0;

    /** Span duration in microseconds. */
    double durUs = 0.0;

    /** Recording thread's stable display id. */
    uint32_t tid = 0;

    /** Leading arg fields that carry a value (0..maxSpanArgs). */
    uint8_t argCount = 0;

    /** Category shown in the viewer ("exp", "sim", "cache", ...). */
    char category[16] = {};

    /** Span name ("task:3", "run:gcc", ...). */
    char name[48] = {};

    /** Optional numeric arguments. @{ */
    char argName[maxSpanArgs][16] = {};
    double argValue[maxSpanArgs] = {};
    /** @} */
};

/** Collects spans into per-thread rings and writes the JSON trace. */
class SpanTracer
{
  public:
    /** Recording totals across all rings. */
    struct Stats
    {
        /** Spans currently buffered. */
        uint64_t buffered = 0;

        /** Spans overwritten because a ring was full. */
        uint64_t dropped = 0;

        /** Spans recorded since the tracer was enabled. */
        uint64_t recorded = 0;

        /**
         * Rings allocated: at most one per thread recording at once,
         * since an exited thread's ring is reused by the next one.
         */
        uint64_t rings = 0;
    };

    SpanTracer() = default;

    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

    /** The process-wide tracer used by the instrumented layers. */
    static SpanTracer &global();

    /**
     * Set the output file and enable recording; an empty path
     * disables recording and drops anything buffered.
     */
    void setOutput(std::string path);

    /** Output path; empty when disabled. */
    std::string outputPath() const;

    /** True when spans are being recorded. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Ring capacity (spans) for rings created after the call; for
     * tests and memory-constrained embedders. Must be >= 2.
     */
    void setRingCapacity(size_t capacity);

    /**
     * Record one completed span (used by TraceSpan; callable directly
     * for spans timed externally). Args with an empty name are
     * omitted. No-op when disabled.
     */
    void record(std::string_view category, std::string_view name,
                double start_us, double dur_us, SpanArg arg = {},
                SpanArg arg2 = {});

    /** Microseconds since the tracer's clock origin. */
    double nowUs() const;

    /**
     * Merge every ring, sort by start time and write the trace-event
     * JSON to the configured output (atomic temp + rename). Buffers
     * are cleared; recording continues. Returns false (with a
     * warning) when the file cannot be written. Safe to call with no
     * output configured (returns true, does nothing).
     */
    bool flush();

    /** Recording totals. */
    Stats stats() const;

  private:
    /** Fixed-capacity overwrite-oldest span buffer. */
    struct Ring
    {
        explicit Ring(size_t capacity) : entries(capacity) {}

        std::mutex mutex;
        std::vector<SpanEvent> entries;
        size_t head = 0;    ///< next write position
        size_t count = 0;   ///< valid entries
        uint64_t dropped = 0;
        uint64_t recorded = 0;
    };

    /**
     * Rings whose threads exited, awaiting the next new recording
     * thread. Shared with the threads' ring caches, so a thread that
     * exits after its tracer is gone touches only this list.
     */
    struct IdleRings
    {
        std::mutex mutex;
        std::vector<Ring *> rings;
    };

    /** One tracer's ring in a thread's cache. */
    struct CachedRing
    {
        uint64_t epoch;
        Ring *ring;
        std::weak_ptr<IdleRings> idle;
    };

    /** A thread's rings; handed back to their tracers on exit. */
    struct RingCache
    {
        std::vector<CachedRing> entries;
        ~RingCache();
    };

    static thread_local RingCache ringCache_;

    Ring &localRing();

    std::atomic<bool> enabled_{false};

    mutable std::mutex mutex_;
    std::string path_;
    std::vector<std::unique_ptr<Ring>> rings_;
    std::shared_ptr<IdleRings> idle_ = std::make_shared<IdleRings>();
    size_t ringCapacity_ = 16384;
    uint32_t nextTid_ = 1;

    /** Process-unique id backing the per-thread ring cache. */
    std::atomic<uint64_t> tracerEpoch_{0};

    /** Wall-clock origin for span timestamps. */
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
};

/** RAII span: times its scope and records on destruction. */
class TraceSpan
{
  public:
    /**
     * Open a span in the global tracer. When tracing is disabled
     * this is a relaxed load and a branch.
     */
    TraceSpan(std::string_view category, std::string_view name)
    {
        SpanTracer &tracer = SpanTracer::global();
        if (!tracer.enabled())
            return;
        tracer_ = &tracer;
        category_ = category;
        name_.assign(name);
        startUs_ = tracer.nowUs();
    }

    /** Attach one numeric argument shown in the viewer. */
    void
    arg(std::string_view arg_name, double value)
    {
        if (!tracer_)
            return;
        argName_ = arg_name;
        argValue_ = value;
    }

    ~TraceSpan()
    {
        if (!tracer_)
            return;
        tracer_->record(category_, name_, startUs_,
                        tracer_->nowUs() - startUs_,
                        {argName_, argValue_});
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    SpanTracer *tracer_ = nullptr;
    std::string_view category_;
    std::string name_;
    std::string_view argName_;
    double argValue_ = 0.0;
    double startUs_ = 0.0;
};

} // namespace obs
} // namespace tdp

#endif // TDP_OBS_SPAN_TRACER_HH
