/**
 * @file
 * Implementation of the sample trace.
 */

#include "measure/trace.hh"

#include <istream>

#include "common/logging.hh"
#include "common/strings.hh"
#include "common/table.hh"

namespace tdp {

double
AlignedSample::totalCount(PerfEvent event) const
{
    double total = 0.0;
    for (const CounterSnapshot &snap : perCpu)
        total += snap[event];
    return total;
}

void
SampleTrace::add(const AlignedSample &sample)
{
    const size_t cpus = sample.perCpu.size();
    if (cpus == 0)
        fatal("SampleTrace::add: sample with no CPUs");
    if (cpuCount_ == 0)
        cpuCount_ = cpus;
    else if (cpus != cpuCount_)
        fatal("SampleTrace::add: sample with %zu CPUs in a trace of "
              "%zu CPUs",
              cpus, cpuCount_);
    columns_[timeColumn].push_back(sample.time);
    columns_[intervalColumn].push_back(sample.interval);
    columns_[irqTotalColumn].push_back(sample.osInterruptsTotal);
    columns_[irqDiskColumn].push_back(sample.osDiskInterrupts);
    columns_[irqDeviceColumn].push_back(sample.osDeviceInterrupts);
    for (int r = 0; r < numRails; ++r)
        columns_[firstRailColumn + static_cast<size_t>(r)].push_back(
            sample.measuredWatts[static_cast<size_t>(r)]);
    for (size_t e = 0; e < numPerfEvents; ++e)
        for (const CounterSnapshot &snap : sample.perCpu)
            columns_[firstCounterColumn + e].push_back(snap.counts[e]);
}

AlignedSample
SampleTrace::row(size_t i) const
{
    AlignedSample s;
    s.time = columns_[timeColumn][i];
    s.interval = columns_[intervalColumn][i];
    s.osInterruptsTotal = columns_[irqTotalColumn][i];
    s.osDiskInterrupts = columns_[irqDiskColumn][i];
    s.osDeviceInterrupts = columns_[irqDeviceColumn][i];
    for (int r = 0; r < numRails; ++r)
        s.measuredWatts[static_cast<size_t>(r)] =
            measuredColumn(static_cast<Rail>(r))[i];
    s.perCpu.resize(cpuCount_);
    for (size_t c = 0; c < cpuCount_; ++c)
        for (int e = 0; e < numPerfEvents; ++e)
            s.perCpu[c][static_cast<PerfEvent>(e)] =
                count(i, c, static_cast<PerfEvent>(e));
    return s;
}

std::vector<AlignedSample>
SampleTrace::rows() const
{
    std::vector<AlignedSample> out;
    for (size_t i = 0; i < size(); ++i)
        out.push_back(row(i));
    return out;
}

std::vector<double>
SampleTrace::counterColumn(PerfEvent event) const
{
    std::vector<double> out(size(), 0.0);
    for (size_t i = 0; i < out.size(); ++i)
        for (size_t c = 0; c < cpuCount_; ++c)
            out[i] += count(i, c, event);
    return out;
}

SampleTrace
SampleTrace::subset(const std::vector<size_t> &rows) const
{
    SampleTrace out;
    out.cpuCount_ = cpuCount_;
    for (size_t k = 0; k < numColumns; ++k) {
        const size_t width = k < firstCounterColumn ? 1 : cpuCount_;
        const std::vector<double> &from = columns_[k];
        std::vector<double> &to = out.columns_[k];
        to.reserve(rows.size() * width);
        for (const size_t i : rows)
            to.insert(to.end(), from.begin() + i * width,
                      from.begin() + (i + 1) * width);
    }
    return out;
}

SampleTrace
SampleTrace::slice(Seconds from, Seconds to) const
{
    std::vector<size_t> rows;
    for (size_t i = 0; i < size(); ++i)
        if (time(i) >= from && time(i) < to)
            rows.push_back(i);
    return subset(rows);
}

void
SampleTrace::writeCsv(std::ostream &os) const
{
    CsvWriter csv(os);
    std::vector<std::string> header = {"time", "interval"};
    for (int e = 0; e < numPerfEvents; ++e)
        header.push_back(perfEventName(static_cast<PerfEvent>(e)));
    header.push_back("os_irq_total");
    header.push_back("os_irq_disk");
    for (int r = 0; r < numRails; ++r)
        header.push_back(std::string("watts_") +
                         railName(static_cast<Rail>(r)));
    csv.writeRow(header);

    for (const AlignedSample &s : rows()) {
        std::vector<std::string> row;
        row.push_back(TableWriter::num(s.time, 3));
        row.push_back(TableWriter::num(s.interval, 6));
        for (int e = 0; e < numPerfEvents; ++e)
            row.push_back(TableWriter::num(
                s.totalCount(static_cast<PerfEvent>(e)), 1));
        row.push_back(TableWriter::num(s.osInterruptsTotal, 1));
        row.push_back(TableWriter::num(s.osDiskInterrupts, 1));
        for (int r = 0; r < numRails; ++r)
            row.push_back(TableWriter::num(
                s.measured(static_cast<Rail>(r)), 4));
        csv.writeRow(row);
    }
}

SampleTrace
SampleTrace::readCsv(std::istream &is, int cpu_count)
{
    if (cpu_count <= 0)
        fatal("SampleTrace::readCsv: cpu_count must be positive");

    const size_t expected_fields =
        2 + static_cast<size_t>(numPerfEvents) + 2 +
        static_cast<size_t>(numRails);

    SampleTrace trace;
    std::string line;
    bool header_seen = false;
    size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        line = trim(line);
        if (line.empty())
            continue;
        if (!header_seen) {
            header_seen = true;
            if (!startsWith(line, "time,"))
                fatal("SampleTrace::readCsv: unexpected header '%s'",
                      line.c_str());
            continue;
        }
        const std::vector<std::string> fields = split(line, ',');
        if (fields.size() != expected_fields) {
            fatal("SampleTrace::readCsv: line %zu has %zu fields, "
                  "expected %zu",
                  line_no, fields.size(), expected_fields);
        }

        AlignedSample s;
        size_t f = 0;
        try {
            s.time = std::stod(fields[f++]);
            s.interval = std::stod(fields[f++]);
            s.perCpu.resize(static_cast<size_t>(cpu_count));
            for (int e = 0; e < numPerfEvents; ++e) {
                const double total = std::stod(fields[f++]);
                for (CounterSnapshot &snap : s.perCpu)
                    snap[static_cast<PerfEvent>(e)] =
                        total / cpu_count;
            }
            s.osInterruptsTotal = std::stod(fields[f++]);
            s.osDiskInterrupts = std::stod(fields[f++]);
            for (int r = 0; r < numRails; ++r)
                s.measuredWatts[static_cast<size_t>(r)] =
                    std::stod(fields[f++]);
        } catch (const std::exception &) {
            fatal("SampleTrace::readCsv: non-numeric field on line "
                  "%zu",
                  line_no);
        }
        // The export does not carry the device-interrupt column; use
        // the disk count as the (conservative) device total.
        s.osDeviceInterrupts = s.osDiskInterrupts;
        trace.add(std::move(s));
    }
    return trace;
}

} // namespace tdp
