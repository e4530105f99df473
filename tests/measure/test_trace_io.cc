/**
 * @file
 * Binary trace serialisation tests: lossless round trips (including
 * the NaN/Inf samples of fault-injected runs), header validation and
 * corruption detection.
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/hash.hh"
#include "measure/trace_io.hh"
#include "platform/server.hh"

namespace tdp {
namespace {

/** Build a double with an exact bit pattern (NaN payloads etc). */
double
fromBits(uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/** A synthetic trace exercising every field and pathological value. */
SampleTrace
pathologicalTrace()
{
    SampleTrace trace;

    AlignedSample plain;
    plain.time = 1.0;
    plain.interval = 0.998;
    plain.osInterruptsTotal = 1234.0;
    plain.osDiskInterrupts = 56.0;
    plain.osDeviceInterrupts = 78.0;
    plain.perCpu.resize(4);
    for (size_t c = 0; c < plain.perCpu.size(); ++c)
        for (int e = 0; e < numPerfEvents; ++e)
            plain.perCpu[c].counts[static_cast<size_t>(e)] =
                static_cast<double>(c * 100 + e) + 0.25;
    for (int r = 0; r < numRails; ++r)
        plain.measuredWatts[static_cast<size_t>(r)] = 10.0 + r;
    trace.add(plain);

    // A glitched window: NaN/Inf watts, NaN-masked counters with a
    // distinctive payload, negative zero and a denormal.
    AlignedSample glitched;
    glitched.time = 2.0;
    glitched.interval = 1.002;
    glitched.perCpu.resize(2);
    glitched.perCpu[0][PerfEvent::Cycles] = 2.8e9;
    glitched.perCpu[0][PerfEvent::FetchedUops] =
        fromBits(0x7ff8dead'beef0001ull); // NaN with payload
    glitched.perCpu[1][PerfEvent::L3LoadMisses] =
        std::numeric_limits<double>::quiet_NaN();
    glitched.perCpu[1][PerfEvent::TlbMisses] = -0.0;
    glitched.perCpu[1][PerfEvent::BusTransactions] =
        std::numeric_limits<double>::denorm_min();
    glitched.measuredWatts[0] =
        std::numeric_limits<double>::quiet_NaN();
    glitched.measuredWatts[1] = std::numeric_limits<double>::infinity();
    glitched.measuredWatts[2] =
        -std::numeric_limits<double>::infinity();
    glitched.osInterruptsTotal =
        std::numeric_limits<double>::quiet_NaN();
    trace.add(glitched);

    // An orphan-adjacent window: zero CPUs recorded (the reading was
    // lost but the power window survived in some export paths).
    AlignedSample empty_cpus;
    empty_cpus.time = 3.0;
    empty_cpus.interval = 1.0;
    empty_cpus.measuredWatts[3] = 42.0;
    trace.add(empty_cpus);

    return trace;
}

std::string
serialize(const SampleTrace &trace, uint64_t fingerprint = 0)
{
    std::ostringstream os(std::ios::binary);
    writeTraceBinary(os, trace, fingerprint);
    return os.str();
}

TEST(TraceIo, RoundTripIsBitExact)
{
    const SampleTrace trace = pathologicalTrace();
    std::istringstream is(serialize(trace, 0xfeedface), std::ios::binary);

    SampleTrace loaded;
    uint64_t fingerprint = 0;
    std::string error;
    ASSERT_TRUE(tryReadTraceBinary(is, loaded, &fingerprint, &error))
        << error;
    EXPECT_EQ(fingerprint, 0xfeedfaceull);
    EXPECT_TRUE(traceBitIdentical(trace, loaded));

    // The NaN payload must survive exactly, not as a canonical NaN.
    uint64_t bits = 0;
    const double uops =
        loaded[1].perCpu[0][PerfEvent::FetchedUops];
    std::memcpy(&bits, &uops, sizeof(bits));
    EXPECT_EQ(bits, 0x7ff8dead'beef0001ull);
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    const std::string bytes = serialize(SampleTrace{});
    std::istringstream is(bytes, std::ios::binary);
    SampleTrace loaded;
    ASSERT_TRUE(tryReadTraceBinary(is, loaded));
    EXPECT_TRUE(loaded.empty());
}

TEST(TraceIo, FaultInjectedRunRoundTripsBitExact)
{
    // The real thing: a short run under every fault class, whose
    // trace carries NaN counters, glitched watts and wrapped-counter
    // reconstructions - exactly what the cache must preserve.
    Server::Params params;
    params.rig.faults = FaultPlan::allFaults();
    Server server(0x7e57, params);
    server.runner().launchStaggered("gcc", 2, 0.5, 0.0);
    server.run(30.0);
    const SampleTrace &trace = server.rig().collect();
    ASSERT_FALSE(trace.empty());

    std::istringstream is(serialize(trace), std::ios::binary);
    SampleTrace loaded;
    std::string error;
    ASSERT_TRUE(tryReadTraceBinary(is, loaded, nullptr, &error))
        << error;
    EXPECT_TRUE(traceBitIdentical(trace, loaded));
    EXPECT_EQ(trace.size(), loaded.size());
}

TEST(TraceIo, BitIdenticalDistinguishesNaNPayloads)
{
    SampleTrace a;
    AlignedSample s;
    s.measuredWatts[0] = fromBits(0x7ff8000000000001ull);
    a.add(s);

    SampleTrace b;
    s.measuredWatts[0] = fromBits(0x7ff8000000000002ull);
    b.add(s);

    EXPECT_TRUE(traceBitIdentical(a, a));
    EXPECT_FALSE(traceBitIdentical(a, b));
}

TEST(TraceIo, DetectsTruncation)
{
    const std::string bytes = serialize(pathologicalTrace());
    for (const size_t keep :
         {size_t{0}, size_t{3}, size_t{20}, bytes.size() - 1}) {
        std::istringstream is(bytes.substr(0, keep), std::ios::binary);
        SampleTrace loaded;
        std::string error;
        EXPECT_FALSE(
            tryReadTraceBinary(is, loaded, nullptr, &error))
            << "kept " << keep << " bytes";
        EXPECT_FALSE(error.empty());
    }
}

TEST(TraceIo, DetectsPayloadCorruption)
{
    // Every single-bit flip anywhere in the payload is caught.
    constexpr size_t header_bytes = 48;
    const std::string bytes = serialize(pathologicalTrace());
    ASSERT_GT(bytes.size(), header_bytes);
    for (size_t bit = 8 * header_bytes; bit < 8 * bytes.size(); ++bit) {
        std::string corrupt = bytes;
        corrupt[bit / 8] ^= static_cast<char>(1u << (bit % 8));
        std::istringstream is(corrupt, std::ios::binary);
        SampleTrace loaded;
        std::string error;
        EXPECT_FALSE(tryReadTraceBinary(is, loaded, nullptr, &error))
            << "bit " << bit;
        EXPECT_EQ(error, "payload checksum mismatch") << "bit " << bit;
    }
}

TEST(TraceIo, DetectsVersionAndMagicMismatch)
{
    std::string bytes = serialize(pathologicalTrace());

    std::string wrong_version = bytes;
    wrong_version[4] = char(0x7f); // version field, LSB
    {
        std::istringstream is(wrong_version, std::ios::binary);
        SampleTrace loaded;
        std::string error;
        EXPECT_FALSE(tryReadTraceBinary(is, loaded, nullptr, &error));
        EXPECT_NE(error.find("version"), std::string::npos) << error;
    }

    std::string wrong_magic = bytes;
    wrong_magic[0] = 'X';
    {
        std::istringstream is(wrong_magic, std::ios::binary);
        SampleTrace loaded;
        std::string error;
        EXPECT_FALSE(tryReadTraceBinary(is, loaded, nullptr, &error));
        EXPECT_NE(error.find("magic"), std::string::npos) << error;
    }
}

/** Overwrite the little-endian u64 at a header offset. */
void
patchU64(std::string &bytes, size_t offset, uint64_t value)
{
    for (size_t i = 0; i < 8; ++i)
        bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
}

TEST(TraceIo, RejectsSampleCountThatCannotFitPayload)
{
    // Header offsets: sampleCount at 24, payloadBytes at 32. The
    // pathological payload is 404 + 244 + 84 bytes, room for at most
    // 8 of the smallest (84-byte, no-CPU) samples.
    const std::string bytes = serialize(pathologicalTrace());
    uint64_t payload_bytes = 0;
    for (size_t i = 0; i < 8; ++i)
        payload_bytes |= static_cast<uint64_t>(
                             static_cast<unsigned char>(bytes[32 + i]))
                         << (8 * i);
    ASSERT_EQ(payload_bytes, 732u);

    // The count is checked against the payload before any sample is
    // reserved: a count this large would make the reservation throw.
    for (const uint64_t count :
         {payload_bytes / 84 + 1, uint64_t{1} << 62, ~uint64_t{0}}) {
        std::string corrupt = bytes;
        patchU64(corrupt, 24, count);
        std::istringstream is(corrupt, std::ios::binary);
        SampleTrace loaded;
        std::string error;
        bool ok = true;
        EXPECT_NO_THROW(
            ok = tryReadTraceBinary(is, loaded, nullptr, &error))
            << "count " << count;
        EXPECT_FALSE(ok) << "count " << count;
        EXPECT_NE(error.find("cannot fit"), std::string::npos) << error;
        EXPECT_TRUE(loaded.empty());
    }

    // A count that fits the bound but not the actual samples still
    // fails in the decode loop, as before.
    std::string short_count = bytes;
    patchU64(short_count, 24, 4);
    std::istringstream is(short_count, std::ios::binary);
    SampleTrace loaded;
    std::string error;
    EXPECT_FALSE(tryReadTraceBinary(is, loaded, nullptr, &error));
    EXPECT_NE(error.find("shorter than sample count"), std::string::npos)
        << error;
}

/** Rewrite a current-version file as a version 1 file would be. */
std::string
asVersion1(std::string bytes)
{
    constexpr size_t header_bytes = 48;
    bytes[4] = 1; // version, little-endian u32
    patchU64(bytes, 40,
             fnv1a64(bytes.data() + header_bytes,
                     bytes.size() - header_bytes));
    return bytes;
}

TEST(TraceIo, RejectsVersion1File)
{
    // Version 1 had the same layout with an FNV-1a payload checksum.
    // The version check rejects it first, naming the version.
    std::istringstream is(asVersion1(serialize(pathologicalTrace(), 42)),
                          std::ios::binary);
    SampleTrace loaded;
    std::string error;
    EXPECT_FALSE(tryReadTraceBinary(is, loaded, nullptr, &error));
    EXPECT_NE(error.find("format version 1, expected 2"),
              std::string::npos)
        << error;
    EXPECT_TRUE(loaded.empty());
}

TEST(TraceIo, StrictReaderThrowsOnCorruption)
{
    std::string bytes = serialize(pathologicalTrace());
    bytes.resize(bytes.size() - 1);
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_THROW(readTraceBinary(is), FatalError);
}

TEST(TraceIo, SniffsBinaryVersusCsvWithoutConsuming)
{
    std::istringstream bin(serialize(pathologicalTrace()),
                           std::ios::binary);
    EXPECT_TRUE(looksLikeTraceBinary(bin));
    // The sniff must leave the stream readable from the start.
    SampleTrace loaded;
    EXPECT_TRUE(tryReadTraceBinary(bin, loaded));

    std::istringstream csv("time,interval,whatever\n");
    EXPECT_FALSE(looksLikeTraceBinary(csv));
    std::string first_line;
    std::getline(csv, first_line);
    EXPECT_EQ(first_line, "time,interval,whatever");
}

} // namespace
} // namespace tdp
