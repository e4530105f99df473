/**
 * @file
 * Versioned binary serialisation of SampleTrace.
 *
 * The CSV export (SampleTrace::writeCsv) is lossy: it rounds values,
 * sums counters across CPUs and cannot represent NaN payloads. The
 * binary format here is *lossless* - every double is stored as its
 * raw 64-bit pattern, counters are kept per CPU - so
 * a deserialised trace is bit-identical to the original, including
 * the NaN/Inf samples a fault-injected measurement run produces.
 * That property is what lets the trace cache hand back a stored
 * trace in place of a fresh simulation without changing a single
 * output bit.
 *
 * Layout (all integers little-endian, doubles as little-endian bit
 * patterns):
 *
 *   header:
 *     u8[4]  magic            "TDPT"
 *     u32    version          traceFormatVersion
 *     u32    perfEventCount   numPerfEvents at write time
 *     u32    railCount        numRails at write time
 *     u32    cpuCount         CPUs per sample (<= 4096; 0 only with
 *                             no samples)
 *     u64    fingerprint      caller-supplied key (0 if unused)
 *     u64    sampleCount
 *     u64    payloadBytes     exactly sampleCount x (10 + cpuCount x
 *                             perfEventCount) x 8
 *     u64    payloadChecksum  XXH64 chained over the columns: each
 *                             column's checksum64 seeds the next,
 *                             the first with seed 0
 *   payload, SampleTrace's columns in storage order:
 *     f64    time[sampleCount], interval[sampleCount]
 *     f64    osInterruptsTotal[sampleCount], osDiskInterrupts[...],
 *            osDeviceInterrupts[...]
 *     f64    measuredWatts[sampleCount], once per rail
 *     f64    counts[sampleCount x cpuCount], once per event (sample
 *            major, CPU minor)
 *
 * The header is 52 bytes. Every size check uses header values alone
 * and runs before anything is allocated; decode then reads each
 * column straight into the trace's storage and checksums it there.
 * The event/rail counts double as a layout check: a file written by a
 * build with a different enum layout is rejected rather than
 * misparsed. Every reject path is available either as a fatal()
 * (strict readers like trace_dump) or as a false return with the
 * reason (the cache, which falls back to re-simulation).
 */

#ifndef TDP_MEASURE_TRACE_IO_HH
#define TDP_MEASURE_TRACE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/hash.hh"
#include "measure/trace.hh"

namespace tdp {

/**
 * Current binary trace format version. Older versions are rejected:
 * version 1 checksummed a row-wise payload with FNV-1a, version 2 the
 * same rows with XXH64. Version 3 stores columns.
 */
constexpr uint32_t traceFormatVersion = 3;

/**
 * Write the trace in the binary format described above.
 *
 * @param fingerprint opaque identity key stored in the header; the
 *        trace cache stores the RunSpec fingerprint here so a
 *        hash-collision on the file name is still detected.
 */
void writeTraceBinary(std::ostream &os, const SampleTrace &trace,
                      uint64_t fingerprint = 0);

/**
 * Read a binary trace, verifying magic, version, layout counts and
 * payload checksum. Returns false with a human-readable reason in
 * *error on any mismatch, truncation or corruption; the stream may
 * be partially consumed in that case. On success the header
 * fingerprint is returned through *fingerprint when given.
 */
bool tryReadTraceBinary(std::istream &is, SampleTrace &out,
                        uint64_t *fingerprint = nullptr,
                        std::string *error = nullptr);

/** Strict variant of tryReadTraceBinary: fatal() on any failure. */
SampleTrace readTraceBinary(std::istream &is,
                            uint64_t *fingerprint = nullptr);

/**
 * True when the stream starts with the binary trace magic. Peeks
 * without consuming, so the same stream can then be handed to either
 * the binary or the CSV reader.
 */
bool looksLikeTraceBinary(std::istream &is);

/**
 * True when the two traces are indistinguishable at the bit level:
 * same sample and CPU counts, and every value of every column has the
 * same 64-bit pattern, so NaNs compare by payload rather than IEEE
 * semantics.
 */
bool traceBitIdentical(const SampleTrace &a, const SampleTrace &b);

} // namespace tdp

#endif // TDP_MEASURE_TRACE_IO_HH
