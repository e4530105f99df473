/**
 * @file
 * Versioned binary serialisation of SampleTrace.
 *
 * The CSV export (SampleTrace::writeCsv) is lossy: it rounds values,
 * sums counters across CPUs and cannot represent NaN payloads. The
 * binary format here is *lossless* - every double is stored as its
 * raw 64-bit pattern, per-CPU counter vectors are kept per CPU - so
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
 *     u64    fingerprint      caller-supplied key (0 if unused)
 *     u64    sampleCount
 *     u64    payloadBytes
 *     u64    payloadChecksum  XXH64 (checksum64, seed 0) over the
 *                             payload bytes
 *   payload, per sample:
 *     f64    time, interval
 *     f64    osInterruptsTotal, osDiskInterrupts, osDeviceInterrupts
 *     f64    measuredWatts[railCount]
 *     u32    cpuCount
 *     f64    counts[perfEventCount] x cpuCount
 *
 * The event/rail counts in the header double as a layout check: a
 * file written by a build with a different enum layout is rejected
 * rather than misparsed. Every reject path is available either as a
 * fatal() (strict readers like trace_dump) or as a false return with
 * the reason (the cache, which falls back to re-simulation).
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
 * Current binary trace format version. Version 1 checksummed the
 * payload with FNV-1a and is rejected; version 2 uses XXH64 with the
 * same header and payload layout.
 */
constexpr uint32_t traceFormatVersion = 2;

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
 * same sample count and every field of every sample (including
 * per-CPU counter vectors) has the same 64-bit pattern, so NaNs
 * compare by payload rather than IEEE semantics.
 */
bool traceBitIdentical(const SampleTrace &a, const SampleTrace &b);

} // namespace tdp

#endif // TDP_MEASURE_TRACE_IO_HH
