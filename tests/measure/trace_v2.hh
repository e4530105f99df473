/**
 * @file
 * A TDPT version 2 writer, for the tests that show old files are
 * rejected. Version 2 stored samples row by row behind a 48-byte
 * header: per sample ten doubles (time, interval, three interrupt
 * deltas, five rail watts), a u32 CPU count and that many CPUs' ten
 * counters, all checksummed with XXH64.
 */

#ifndef TDP_TESTS_MEASURE_TRACE_V2_HH
#define TDP_TESTS_MEASURE_TRACE_V2_HH

#include <cstdint>
#include <cstring>
#include <string>

#include "common/hash.hh"
#include "measure/trace.hh"

namespace tdp {
namespace testutil {

/** Append @p value LSB-first. */
template <typename T>
void
appendLittleEndian(std::string &out, T value)
{
    for (size_t i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

/** @p trace as a version 2 file would have stored it. */
inline std::string
traceVersion2Bytes(const SampleTrace &trace, uint64_t fingerprint)
{
    auto append_double = [](std::string &out, double value) {
        uint64_t bits;
        std::memcpy(&bits, &value, sizeof(bits));
        appendLittleEndian(out, bits);
    };
    std::string payload;
    for (const AlignedSample &s : trace.rows()) {
        for (const double v : {s.time, s.interval, s.osInterruptsTotal,
                               s.osDiskInterrupts, s.osDeviceInterrupts})
            append_double(payload, v);
        for (const double watts : s.measuredWatts)
            append_double(payload, watts);
        appendLittleEndian(payload,
                           static_cast<uint32_t>(s.perCpu.size()));
        for (const CounterSnapshot &snap : s.perCpu)
            for (const double count : snap.counts)
                append_double(payload, count);
    }
    std::string bytes = "TDPT";
    appendLittleEndian(bytes, uint32_t{2});
    appendLittleEndian(bytes, static_cast<uint32_t>(numPerfEvents));
    appendLittleEndian(bytes, static_cast<uint32_t>(numRails));
    appendLittleEndian(bytes, fingerprint);
    appendLittleEndian(bytes, static_cast<uint64_t>(trace.size()));
    appendLittleEndian(bytes, static_cast<uint64_t>(payload.size()));
    appendLittleEndian(bytes, checksum64(payload.data(), payload.size()));
    return bytes + payload;
}

} // namespace testutil
} // namespace tdp

#endif // TDP_TESTS_MEASURE_TRACE_V2_HH
