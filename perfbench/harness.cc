/**
 * @file
 * Implementation of the perfbench binary's shared pieces.
 */

#include "harness.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/bench_util.hh"
#include "common/logging.hh"
#include "obs/json_writer.hh"
#include "obs/span_tracer.hh"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t
masterSeed(uint64_t seed)
{
    return tdp::bench::defaultSeed ^ seed;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    tdp::fatal("perfbench: no VmHWM line in /proc/self/status");
}

void
SpanSession::openNextChunk()
{
    char name[32];
    std::snprintf(name, sizeof name, "/spans-%04zu.json",
                  files_.size());
    tdp::obs::SpanTracer::global().setOutput(dir_ + name);
}

void
SpanSession::start(size_t worker_ring_capacity)
{
    tdp::obs::SpanTracer &tracer = tdp::obs::SpanTracer::global();
    openNextChunk();
    // The first record creates this thread's ring at the capacity in
    // force; later threads get the (smaller) worker capacity.
    tracer.record("bench", "perfbench::trace-start", tracer.nowUs(),
                  0.0);
    tracer.setRingCapacity(worker_ring_capacity);
    active_ = true;
}

void
SpanSession::flush()
{
    if (!active_)
        return;
    tdp::obs::SpanTracer &tracer = tdp::obs::SpanTracer::global();
    const std::string path = tracer.outputPath();
    if (!tracer.flush())
        tdp::fatal("perfbench: could not write span chunk %s",
                   path.c_str());
    files_.push_back(path);
    const tdp::obs::SpanTracer::Stats stats = tracer.stats();
    recorded_ = stats.recorded;
    dropped_ = stats.dropped;
    openNextChunk();
}

void
SpanSession::stop()
{
    if (!active_)
        return;
    flush();
    tdp::obs::SpanTracer::global().setOutput("");
    active_ = false;
}

std::vector<double>
runFor(double seconds, int min_units, const std::function<void()> &unit,
       const std::function<void()> &between)
{
    std::vector<double> walls;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(walls.size()) < min_units ||
           secondsSince(start) < seconds) {
        const Clock::time_point t0 = Clock::now();
        unit();
        walls.push_back(secondsSince(t0));
        if (between)
            between();
    }
    return walls;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
stderrMark(const char *what)
{
    std::fprintf(stderr, "perfbench: mark %s\n", what);
    std::fflush(stderr);
}

std::vector<double>
repeatSetup(const std::function<void()> &reset,
            const std::function<void()> &setup)
{
    std::vector<double> walls;
    stderrMark("setup-begin");
    const Clock::time_point start = Clock::now();
    while (walls.size() < 3 || secondsSince(start) < 2.0) {
        reset();
        const Clock::time_point t0 = Clock::now();
        setup();
        walls.push_back(secondsSince(t0));
    }
    stderrMark("setup-end");
    return walls;
}

TimedSection
runTimedSection(const Options &opt, int min_units,
                size_t worker_ring_capacity, int flush_every,
                const std::function<void()> &unit)
{
    TimedSection out;
    bool first = true;
    auto marked = [&] {
        if (first)
            stderrMark("unit-begin");
        unit();
        if (first)
            stderrMark("unit-end");
        first = false;
    };
    out.untraced =
        runFor(opt.trace ? opt.seconds / 2.0 : opt.seconds, min_units,
               marked);
    if (!opt.trace)
        return out;
    SpanSession spans(opt.workdir);
    spans.start(worker_ring_capacity);
    int since_flush = 0;
    out.traced = runFor(opt.seconds / 2.0, min_units, marked, [&] {
        if (++since_flush == flush_every) {
            spans.flush();
            since_flush = 0;
        }
    });
    spans.stop();
    out.spanFiles = spans.files();
    out.spansRecorded = spans.recorded();
    out.spansDropped = spans.dropped();
    return out;
}

void
recordTimed(const Options &opt, const TimedSection &timed,
            Report &report)
{
    report.series("unit_s", timed.untraced);
    if (!opt.trace)
        return;
    report.series("traced_unit_s", timed.traced);
    report.count("traced_units", timed.traced.size());
    report.count("obs.spans", timed.spansRecorded);
    report.count("obs.spans_dropped", timed.spansDropped);
    std::string files;
    for (const std::string &f : timed.spanFiles)
        files += (files.empty() ? "" : "\n") + f;
    report.text("span_files", files);
}

void
Report::set(const std::string &name, double value)
{
    numbers_[name] = value;
}

void
Report::count(const std::string &name, uint64_t value)
{
    counts_[name] = value;
}

void
Report::text(const std::string &name, const std::string &value)
{
    texts_[name] = value;
}

void
Report::series(const std::string &name, std::vector<double> values)
{
    series_[name] = std::move(values);
}

void
Report::check(const std::string &name, bool ok, const std::string &detail)
{
    checks_.push_back({name, ok, detail});
    if (!ok)
        std::fprintf(stderr, "perfbench: check %s FAILED: %s\n",
                     name.c_str(), detail.c_str());
}

bool
Report::allChecksPassed() const
{
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const Check &c) { return c.ok; });
}

void
Report::print() const
{
    tdp::obs::JsonWriter json(std::cout);
    json.beginObject();
    json.keyValue("attempted", attempted_);
    json.key("numbers");
    json.beginObject();
    for (const auto &[name, value] : numbers_)
        json.keyValue(name, value);
    json.endObject();
    json.key("counts");
    json.beginObject();
    for (const auto &[name, value] : counts_)
        json.keyValue(name, value);
    json.endObject();
    json.key("texts");
    json.beginObject();
    for (const auto &[name, value] : texts_)
        json.keyValue(name, std::string_view(value));
    json.endObject();
    json.key("series");
    json.beginObject();
    for (const auto &[name, values] : series_) {
        json.key(name);
        json.beginArray();
        for (const double v : values)
            json.value(v);
        json.endArray();
    }
    json.endObject();
    json.key("checks");
    json.beginArray();
    for (const Check &c : checks_) {
        json.beginObject();
        json.keyValue("name", std::string_view(c.name));
        json.keyValue("ok", c.ok);
        json.keyValue("detail", std::string_view(c.detail));
        json.endObject();
    }
    json.endArray();
    json.endObject();
    std::cout << '\n' << std::flush;
}

std::string
hex64(uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
    return buf;
}

} // namespace perfbench
