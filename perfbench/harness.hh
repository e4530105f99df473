/**
 * @file
 * Shared pieces of the perfbench binary: options, timing, the span
 * session of a traced run and the JSON report that run.py turns into
 * metrics.
 *
 * Every layer is timed from outside: the workloads call the public
 * functions of each layer themselves and wrap each call in an
 * obs::TraceSpan whose name is the called function ("Server::run",
 * "StreamService::tick", ...) and whose category is the layer. The
 * program's own spans never contain "::", which is how run.py tells
 * the two apart.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;

    /** Workload seed as given on the command line. */
    uint64_t seed = 0;

    /** Length of the measured section (s). */
    double seconds = 10.0;

    /**
     * Traced run: the measured section is split into an untraced half
     * and a traced half, and only per-layer numbers are reported.
     */
    bool trace = false;

    /** Scratch directory for caches, checkpoints and span files. */
    std::string workdir;
};

/**
 * Repeat a workload's set-up at least 3 times and for at least 2 s;
 * setup_s is the median of the repetitions, whose walls are returned.
 * @p reset runs before each repetition, outside its timing; the last
 * repetition's state is what the measured section uses. All
 * repetitions are bracketed by setup-begin/setup-end stderr marks.
 */
std::vector<double> repeatSetup(const std::function<void()> &reset,
                                const std::function<void()> &setup);

/**
 * Master seed of the generated inputs: the paper benches' default
 * seed for --seed 0, so the default-seed pipeline reproduces exactly
 * what table3_model_error_int and table4_model_error_fp print.
 */
uint64_t masterSeed(uint64_t seed);

/** Peak resident set of this process (MB, VmHWM). */
double peakRssMb();

/**
 * Span recording for a traced run. Spans are flushed in chunks to
 * numbered files under the work directory, so the per-thread rings
 * never overwrite anything between flushes.
 */
class SpanSession
{
  public:
    explicit SpanSession(std::string dir) : dir_(std::move(dir)) {}

    /**
     * Start recording. The calling thread's ring gets the default
     * capacity; rings of threads created afterwards get
     * @p worker_ring_capacity (stream ticks start fresh pool threads
     * every tick, each with its own ring).
     */
    void start(size_t worker_ring_capacity);

    /** Write what is buffered to the next chunk file. */
    void flush();

    /** Flush and stop recording. */
    void stop();

    const std::vector<std::string> &files() const { return files_; }
    uint64_t recorded() const { return recorded_; }
    uint64_t dropped() const { return dropped_; }

  private:
    void openNextChunk();

    std::string dir_;
    bool active_ = false;
    std::vector<std::string> files_;
    uint64_t recorded_ = 0;
    uint64_t dropped_ = 0;
};

/**
 * Run @p unit repeatedly until @p seconds have elapsed (at least
 * @p min_units times) and return the wall time of each unit. When
 * given, @p between runs after each unit, outside its timing.
 */
std::vector<double> runFor(double seconds, int min_units,
                           const std::function<void()> &unit,
                           const std::function<void()> &between = {});

/** Median of a sample (copy; 0 for an empty one). */
double median(std::vector<double> values);

/**
 * The report of one run: named numbers, exact counts, number series
 * and output checks, printed as one JSON object line.
 */
class Report
{
  public:
    void set(const std::string &name, double value);
    void count(const std::string &name, uint64_t value);
    void text(const std::string &name, const std::string &value);
    void series(const std::string &name, std::vector<double> values);

    /** Record an output check; a failed one marks the run failed. */
    void check(const std::string &name, bool ok,
               const std::string &detail = "");

    bool allChecksPassed() const;

    /** Operations the run attempted (contract `attempted`). */
    void setAttempted(uint64_t n) { attempted_ = n; }

    void print() const;

  private:
    std::map<std::string, double> numbers_;
    std::map<std::string, uint64_t> counts_;
    std::map<std::string, std::string> texts_;
    std::map<std::string, std::vector<double>> series_;
    struct Check
    {
        std::string name;
        bool ok;
        std::string detail;
    };
    std::vector<Check> checks_;
    uint64_t attempted_ = 0;
};

/** Write a marker line run.py uses to window the stderr log counts. */
void stderrMark(const char *what);

/** Wall time of each unit of the measured section (s). */
struct TimedSection
{
    std::vector<double> untraced;
    std::vector<double> traced;

    /** Span chunk files and recorder totals of the traced half. @{ */
    std::vector<std::string> spanFiles;
    uint64_t spansRecorded = 0;
    uint64_t spansDropped = 0;
    /** @} */
};

/**
 * The measured section every workload shares: @p unit repeated for
 * opt.seconds untraced, or, in a traced run, for half of that untraced
 * and then half traced, flushing spans every @p flush_every units. The
 * first unit's stderr is bracketed by unit-begin/unit-end marks.
 */
TimedSection runTimedSection(const Options &opt, int min_units,
                             size_t worker_ring_capacity,
                             int flush_every,
                             const std::function<void()> &unit);

/** Put the unit walls of @p timed into the report. */
void recordTimed(const Options &opt, const TimedSection &timed,
                 Report &report);

/** Hex form of a 64-bit digest. */
std::string hex64(uint64_t value);

/** The workloads; each fills the report for one run. */
void runPaperPipeline(const Options &opt, Report &report);
void runModelGrid(const Options &opt, Report &report);
void runStreamHostile(const Options &opt, Report &report);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
