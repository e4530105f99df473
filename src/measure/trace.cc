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

CounterSnapshot
AlignedSample::totalCounts() const
{
    CounterSnapshot total;
    for (const CounterSnapshot &snap : perCpu)
        total += snap;
    return total;
}

const SampleTrace::Columns &
SampleTrace::columns() const
{
    if (columnsValid_)
        return columns_;
    for (auto &column : columns_.measured) {
        column.clear();
        column.reserve(samples_.size());
    }
    for (auto &column : columns_.counters) {
        column.clear();
        column.reserve(samples_.size());
    }
    for (const AlignedSample &s : samples_) {
        for (int r = 0; r < numRails; ++r)
            columns_.measured[static_cast<size_t>(r)].push_back(
                s.measured(static_cast<Rail>(r)));
        // One sweep across the CPUs replaces ten; the per-event
        // totals (and therefore the columns) are unchanged.
        const CounterSnapshot totals = s.totalCounts();
        for (int e = 0; e < numPerfEvents; ++e)
            columns_.counters[static_cast<size_t>(e)].push_back(
                totals.counts[static_cast<size_t>(e)]);
    }
    columnsValid_ = true;
    return columns_;
}

const std::vector<double> &
SampleTrace::measuredColumn(Rail rail) const
{
    return columns().measured[static_cast<size_t>(rail)];
}

const std::vector<double> &
SampleTrace::counterColumn(PerfEvent event) const
{
    return columns().counters[static_cast<size_t>(event)];
}

SampleTrace
SampleTrace::slice(Seconds from, Seconds to) const
{
    SampleTrace out;
    for (const AlignedSample &s : samples_)
        if (s.time >= from && s.time < to)
            out.add(s);
    return out;
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

    for (const AlignedSample &s : samples_) {
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
