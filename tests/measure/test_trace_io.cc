/**
 * @file
 * Binary trace serialisation tests: lossless round trips (including
 * the NaN/Inf samples of fault-injected runs), header validation,
 * corruption detection and the rejection of older format versions.
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../stream/alloc_hook.hh"
#include "common/hash.hh"
#include "measure/trace_io.hh"
#include "platform/server.hh"
#include "trace_v2.hh"

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

/** Bytes of the TDPT v3 header; the payload follows. */
constexpr size_t headerBytes = 52;

/** Header offsets of the v3 fields the tests patch. */
constexpr size_t cpuCountOffset = 16;
constexpr size_t sampleCountOffset = 28;
constexpr size_t payloadBytesOffset = 36;

/** A clean 4-CPU trace exercising every field. */
SampleTrace
fourCpuTrace()
{
    SampleTrace trace;
    for (int i = 0; i < 2; ++i) {
        AlignedSample plain;
        plain.time = 1.0 + 2 * i;
        plain.interval = 0.998;
        plain.osInterruptsTotal = 1234.0 + i;
        plain.osDiskInterrupts = 56.0;
        plain.osDeviceInterrupts = 78.0;
        plain.perCpu.resize(4);
        for (size_t c = 0; c < plain.perCpu.size(); ++c)
            for (int e = 0; e < numPerfEvents; ++e)
                plain.perCpu[c].counts[static_cast<size_t>(e)] =
                    static_cast<double>(1000 * i + c * 100 + e) + 0.25;
        for (int r = 0; r < numRails; ++r)
            plain.measuredWatts[static_cast<size_t>(r)] = 10.0 + r + i;
        trace.add(plain);
    }
    return trace;
}

/**
 * A 2-CPU trace of glitched windows: NaN/Inf watts, NaN-masked
 * counters with a distinctive payload, negative zero and a denormal.
 */
SampleTrace
glitchedTwoCpuTrace()
{
    SampleTrace trace;
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

    // A second window: the reading survived but one rail did not.
    AlignedSample partial;
    partial.time = 3.0;
    partial.interval = -0.0;
    partial.perCpu.resize(2);
    partial.perCpu[1][PerfEvent::Cycles] =
        -std::numeric_limits<double>::denorm_min();
    partial.measuredWatts[3] = 42.0;
    partial.measuredWatts[4] = fromBits(0xfff0000000000abcull);
    trace.add(partial);
    return trace;
}

/**
 * The pathological traces, one per CPU count. A sample with no CPUs
 * cannot join a trace, so the zero-CPU case is the empty trace.
 */
std::vector<SampleTrace>
pathologicalTraces()
{
    return {fourCpuTrace(), glitchedTwoCpuTrace(), SampleTrace{}};
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
    for (const SampleTrace &trace : pathologicalTraces()) {
        std::istringstream is(serialize(trace, 0xfeedface),
                              std::ios::binary);
        SampleTrace loaded;
        uint64_t fingerprint = 0;
        std::string error;
        ASSERT_TRUE(tryReadTraceBinary(is, loaded, &fingerprint, &error))
            << error;
        EXPECT_EQ(fingerprint, 0xfeedfaceull);
        EXPECT_EQ(loaded.cpuCount(), trace.cpuCount());
        EXPECT_TRUE(traceBitIdentical(trace, loaded));
    }

    // The NaN payload must survive exactly, not as a canonical NaN.
    std::istringstream is(serialize(glitchedTwoCpuTrace()),
                          std::ios::binary);
    const SampleTrace loaded = readTraceBinary(is);
    uint64_t bits = 0;
    const double uops = loaded.count(0, 0, PerfEvent::FetchedUops);
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
    s.perCpu.resize(1);
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
    for (const SampleTrace &trace : pathologicalTraces()) {
        const std::string bytes = serialize(trace);
        for (const size_t keep :
             {size_t{0}, size_t{3}, size_t{20}, bytes.size() - 1}) {
            std::istringstream is(bytes.substr(0, keep),
                                  std::ios::binary);
            SampleTrace loaded;
            std::string error;
            EXPECT_FALSE(
                tryReadTraceBinary(is, loaded, nullptr, &error))
                << "kept " << keep << " bytes";
            EXPECT_FALSE(error.empty());
        }
    }
}

TEST(TraceIo, DetectsPayloadCorruption)
{
    // Every single-bit flip anywhere in a v3 payload is caught.
    for (const SampleTrace &trace :
         {fourCpuTrace(), glitchedTwoCpuTrace()}) {
        const std::string bytes = serialize(trace);
        ASSERT_GT(bytes.size(), headerBytes);
        for (size_t bit = 8 * headerBytes; bit < 8 * bytes.size();
             ++bit) {
            std::string corrupt = bytes;
            corrupt[bit / 8] ^= static_cast<char>(1u << (bit % 8));
            std::istringstream is(corrupt, std::ios::binary);
            SampleTrace loaded;
            std::string error;
            EXPECT_FALSE(
                tryReadTraceBinary(is, loaded, nullptr, &error))
                << "bit " << bit;
            EXPECT_EQ(error, "payload checksum mismatch")
                << "bit " << bit;
        }
    }
}

TEST(TraceIo, DetectsVersionAndMagicMismatch)
{
    std::string bytes = serialize(glitchedTwoCpuTrace());

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

/** Overwrite the little-endian integer at a header offset. */
template <typename T>
void
patchLe(std::string &bytes, size_t offset, T value)
{
    for (size_t i = 0; i < sizeof(T); ++i)
        bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
}

/** Decode @p bytes, expecting a reject whose reason contains @p why. */
void
expectRejected(const std::string &bytes, const std::string &why)
{
    std::istringstream is(bytes, std::ios::binary);
    SampleTrace loaded;
    std::string error;
    bool ok = true;
    EXPECT_NO_THROW(ok = tryReadTraceBinary(is, loaded, nullptr, &error));
    EXPECT_FALSE(ok);
    EXPECT_NE(error.find(why), std::string::npos) << error;
    EXPECT_TRUE(loaded.empty());
}

TEST(TraceIo, RejectsSampleCountThatCannotFitPayload)
{
    // The payload is exactly samples x (10 + 4 x 10) doubles: 800
    // bytes for the two 4-CPU samples.
    const std::string bytes = serialize(fourCpuTrace());
    uint64_t payload_bytes = 0;
    for (size_t i = 0; i < 8; ++i)
        payload_bytes |=
            static_cast<uint64_t>(static_cast<unsigned char>(
                bytes[payloadBytesOffset + i]))
            << (8 * i);
    ASSERT_EQ(payload_bytes, 800u);

    // The count is checked against the payload length before any
    // column is allocated: a count this large would make the
    // allocation throw. Too few samples fail the same exact check.
    for (const uint64_t count :
         {uint64_t{3}, uint64_t{1}, uint64_t{1} << 62, ~uint64_t{0}}) {
        std::string corrupt = bytes;
        patchLe(corrupt, sampleCountOffset, count);
        SCOPED_TRACE(count);
        expectRejected(corrupt, "cannot fit");
    }
}

TEST(TraceIo, RejectsInflatedHeaderBeforeAllocating)
{
    // Every size field is checked on the header alone: no corrupt
    // header makes the decoder allocate more than the file holds.
    const std::string bytes = serialize(fourCpuTrace());
    std::string samples = bytes;
    patchLe(samples, sampleCountOffset, uint64_t{1} << 40);
    std::string cpus = bytes;
    patchLe(cpus, cpuCountOffset, uint32_t{4097});
    std::string no_cpus = bytes;
    patchLe(no_cpus, cpuCountOffset, uint32_t{0});

    const std::pair<std::string, const char *> cases[] = {
        {samples, "cannot fit"},
        {cpus, "implausible CPU count 4097"},
        {no_cpus, "samples with no CPUs"},
    };
    for (const auto &[corrupt, why] : cases) {
        SCOPED_TRACE(why);
        expectRejected(corrupt, why);

        std::istringstream is(corrupt, std::ios::binary);
        SampleTrace loaded;
        testutil::resetLargestAllocation();
        tryReadTraceBinary(is, loaded);
        if (testutil::allocationHookActive()) {
            EXPECT_LT(testutil::largestAllocation(), corrupt.size());
        }
    }
}

/** Rewrite a current-version file as a version 1 file would be. */
std::string
asVersion1(std::string bytes)
{
    bytes[4] = 1; // version, little-endian u32
    patchLe(bytes, 44,
            fnv1a64(bytes.data() + headerBytes,
                    bytes.size() - headerBytes));
    return bytes;
}

TEST(TraceIo, RejectsVersion1File)
{
    // Version 1 checksummed its payload with FNV-1a. The version
    // check rejects it first, naming the version.
    expectRejected(asVersion1(serialize(glitchedTwoCpuTrace(), 42)),
                   "format version 1, expected 3");
}

TEST(TraceIo, RejectsVersion2File)
{
    // A real version 2 file: row-wise samples behind a 48-byte header.
    expectRejected(testutil::traceVersion2Bytes(fourCpuTrace(), 42),
                   "format version 2, expected 3");
}

TEST(TraceIo, StrictReaderThrowsOnCorruption)
{
    std::string bytes = serialize(fourCpuTrace());
    bytes.resize(bytes.size() - 1);
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_THROW(readTraceBinary(is), FatalError);
}

TEST(TraceIo, SniffsBinaryVersusCsvWithoutConsuming)
{
    std::istringstream bin(serialize(fourCpuTrace()),
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
