/**
 * @file
 * Implementation of the binary trace serialisation.
 */

#include "measure/trace_io.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <vector>
#include <istream>
#include <ostream>

#include "common/logging.hh"

namespace tdp {

namespace {

constexpr char traceMagic[4] = {'T', 'D', 'P', 'T'};

/** Bytes of the header (see trace_io.hh). */
constexpr size_t headerBytes = 4 + 4 * 4 + 8 * 4;


/** Append an integer LSB-first. */
template <typename T>
void
appendLe(std::string &out, T value)
{
    for (size_t i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

/** Reverse each double's bytes on big-endian hosts (a no-op on
 *  little-endian ones, where storage order is the file's order). */
void
toFromLittleEndian(std::vector<double> &values)
{
    if constexpr (std::endian::native != std::endian::little) {
        for (double &value : values) {
            unsigned char bytes[sizeof(double)];
            std::memcpy(bytes, &value, sizeof(double));
            std::reverse(bytes, bytes + sizeof(double));
            std::memcpy(&value, bytes, sizeof(double));
        }
    }
}

/** Read a little-endian integer; any host byte order. */
template <typename T>
T
loadLe(const char *bytes)
{
    T value = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
        value |= static_cast<T>(static_cast<unsigned char>(bytes[i]))
                 << (8 * i);
    return value;
}

bool
fail(std::string *error, const std::string &reason)
{
    if (error)
        *error = reason;
    return false;
}

} // namespace

void
writeTraceBinary(std::ostream &os, const SampleTrace &trace,
                 uint64_t fingerprint)
{
    // The payload is the columns in storage order, little-endian;
    // each column's checksum seeds the next one's.
    std::array<std::vector<double>, SampleTrace::numColumns> payload;
    uint64_t checksum = 0;
    uint64_t payload_bytes = 0;
    for (size_t k = 0; k < SampleTrace::numColumns; ++k) {
        payload[k] = trace.column(k);
        toFromLittleEndian(payload[k]);
        checksum = checksum64(payload[k].data(),
                              payload[k].size() * sizeof(double), checksum);
        payload_bytes += payload[k].size() * sizeof(double);
    }

    std::string header;
    header.append(traceMagic, sizeof(traceMagic));
    appendLe(header, traceFormatVersion);
    appendLe(header, static_cast<uint32_t>(numPerfEvents));
    appendLe(header, static_cast<uint32_t>(numRails));
    appendLe(header, static_cast<uint32_t>(trace.cpuCount()));
    appendLe(header, fingerprint);
    appendLe(header, static_cast<uint64_t>(trace.size()));
    appendLe(header, payload_bytes);
    appendLe(header, checksum);

    os.write(header.data(), static_cast<std::streamsize>(header.size()));
    for (const std::vector<double> &column : payload)
        os.write(reinterpret_cast<const char *>(column.data()),
                 static_cast<std::streamsize>(column.size() *
                                              sizeof(double)));
    if (!os)
        fatal("writeTraceBinary: stream write failed");
}

bool
tryReadTraceBinary(std::istream &is, SampleTrace &out,
                   uint64_t *fingerprint, std::string *error)
{
    char header[headerBytes];
    is.read(header, static_cast<std::streamsize>(headerBytes));
    if (static_cast<size_t>(is.gcount()) != headerBytes)
        return fail(error, "truncated header");
    if (std::memcmp(header, traceMagic, sizeof(traceMagic)) != 0)
        return fail(error, "bad magic (not a binary trace)");

    const uint32_t version = loadLe<uint32_t>(header + 4);
    const uint32_t event_count = loadLe<uint32_t>(header + 8);
    const uint32_t rail_count = loadLe<uint32_t>(header + 12);
    const uint32_t cpu_count = loadLe<uint32_t>(header + 16);
    const uint64_t key = loadLe<uint64_t>(header + 20);
    const uint64_t sample_count = loadLe<uint64_t>(header + 28);
    const uint64_t payload_bytes = loadLe<uint64_t>(header + 36);
    const uint64_t checksum = loadLe<uint64_t>(header + 44);

    if (version != traceFormatVersion) {
        return fail(error,
                    formatString("format version %u, expected %u",
                                 version, traceFormatVersion));
    }
    if (event_count != static_cast<uint32_t>(numPerfEvents) ||
        rail_count != static_cast<uint32_t>(numRails)) {
        return fail(error,
                    formatString("layout mismatch (%u events x %u "
                                 "rails, expected %d x %d)",
                                 event_count, rail_count,
                                 numPerfEvents, numRails));
    }
    // Every size check runs on header values alone, before anything
    // is allocated: a bit flip in a length field must not drive a
    // multi-gigabyte allocation.
    if (payload_bytes > (1ull << 32))
        return fail(error, "payload length implausibly large");
    if (cpu_count > 4096)
        return fail(error,
                    formatString("implausible CPU count %u", cpu_count));
    if (cpu_count == 0 && sample_count > 0)
        return fail(error, "samples with no CPUs");
    // The payload is exactly sample_count rows of this many bytes.
    // row_bytes is at most ~320 KB and the payload at most 4 GiB, so
    // the division keeps the product below from overflowing.
    const uint64_t row_bytes =
        8 * (SampleTrace::firstCounterColumn +
             uint64_t{cpu_count} * numPerfEvents);
    if (sample_count > payload_bytes / row_bytes ||
        sample_count * row_bytes != payload_bytes) {
        return fail(error,
                    formatString("sample count %llu of %u CPUs cannot "
                                 "fit in %llu payload bytes",
                                 static_cast<unsigned long long>(
                                     sample_count),
                                 cpu_count,
                                 static_cast<unsigned long long>(
                                     payload_bytes)));
    }

    // The payload is the storage: read each column straight into
    // place, chaining its checksum into the next column's seed.
    SampleTrace trace;
    trace.cpuCount_ = cpu_count;
    uint64_t sum = 0;
    for (size_t k = 0; k < SampleTrace::numColumns; ++k) {
        std::vector<double> &column = trace.columns_[k];
        column.resize(static_cast<size_t>(sample_count) *
                      (k < SampleTrace::firstCounterColumn ? 1 : cpu_count));
        const size_t len = column.size() * sizeof(double);
        char *bytes = reinterpret_cast<char *>(column.data());
        if (len > 0 && !is.read(bytes, static_cast<std::streamsize>(len)))
            return fail(error, "truncated payload");
        sum = checksum64(bytes, len, sum);
        toFromLittleEndian(column);
    }
    if (sum != checksum)
        return fail(error, "payload checksum mismatch");

    out = std::move(trace);
    if (fingerprint)
        *fingerprint = key;
    return true;
}

SampleTrace
readTraceBinary(std::istream &is, uint64_t *fingerprint)
{
    SampleTrace trace;
    std::string error;
    if (!tryReadTraceBinary(is, trace, fingerprint, &error))
        fatal("readTraceBinary: %s", error.c_str());
    return trace;
}

bool
looksLikeTraceBinary(std::istream &is)
{
    char probe[sizeof(traceMagic)] = {};
    const std::streampos start = is.tellg();
    is.read(probe, sizeof(probe));
    const bool complete =
        static_cast<size_t>(is.gcount()) == sizeof(probe);
    is.clear();
    is.seekg(start);
    return complete &&
           std::memcmp(probe, traceMagic, sizeof(traceMagic)) == 0;
}

bool
traceBitIdentical(const SampleTrace &a, const SampleTrace &b)
{
    // memcmp compares bit patterns, so NaNs compare by payload.
    for (size_t k = 0; k < SampleTrace::numColumns; ++k) {
        const std::vector<double> &x = a.column(k);
        const std::vector<double> &y = b.column(k);
        if (x.size() != y.size())
            return false;
        if (!x.empty() &&
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)
            return false;
    }
    return true;
}

} // namespace tdp
