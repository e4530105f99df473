/**
 * @file
 * Hash tests: XXH64 known answers and properties, and pinned FNV-1a
 * values for every caller that stores or compares them (trace-cache
 * fingerprints, RNG stream names). A pinned value that moves means a
 * cache key or random stream moved with it.
 */

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.hh"
#include "common/random.hh"
#include "trace/fingerprint.hh"

namespace tdp {
namespace {

/** A deterministic buffer of arbitrary bytes. */
std::vector<unsigned char>
arbitraryBytes(size_t n)
{
    std::vector<unsigned char> bytes(n);
    Rng rng(0x4a54);
    for (unsigned char &b : bytes)
        b = static_cast<unsigned char>(rng.next() >> 56);
    return bytes;
}

TEST(Hash, ChecksumKnownAnswers)
{
    // XXH64 reference values. The short inputs take only the tail
    // steps; the fox sentences add a 32-byte stripe, an 8-byte step,
    // and then the 1-byte (43 bytes) or the 4-byte (44 bytes) step.
    EXPECT_EQ(checksum64("", 0), 0xef46db3751d8e999ull);
    EXPECT_EQ(checksum64("a", 1), 0xd24ec4f1a98c6e5bull);
    EXPECT_EQ(checksum64("abc", 3), 0x44bc2cf5ad770999ull);
    const std::string fox = "The quick brown fox jumps over the lazy dog";
    EXPECT_EQ(checksum64(fox.data(), fox.size()), 0x0b242d361fda71bcull);
    EXPECT_EQ(checksum64(fox.data(), fox.size(), 1),
              0xdf5091b6dad2c6dbull);
    const std::string fox_dot = fox + ".";
    EXPECT_EQ(checksum64(fox_dot.data(), fox_dot.size()),
              0x44ad33705751ad73ull);
    EXPECT_EQ(checksum64(fox_dot.data(), fox_dot.size(), 1),
              0xd2322df45e8e9e26ull);
}

TEST(Hash, ChecksumIgnoresAlignment)
{
    // Lengths cover the empty input, each tail (1-, 4- and 8-byte
    // steps) and one or more 32-byte stripes.
    const std::vector<unsigned char> src = arbitraryBytes(100);
    for (size_t len : {0, 1, 3, 4, 7, 8, 12, 31, 32, 33, 63, 64, 100}) {
        const uint64_t expected = checksum64(src.data(), len);
        for (size_t offset = 0; offset < 8; ++offset) {
            std::vector<unsigned char> shifted(offset + len + 1);
            std::memcpy(shifted.data() + offset, src.data(), len);
            EXPECT_EQ(checksum64(shifted.data() + offset, len), expected)
                << "len " << len << " offset " << offset;
        }
    }
}

TEST(Hash, ChecksumDetectsEverySingleBitFlip)
{
    // 100 = 3 stripes + a 4-byte tail; 45 = 1 stripe + 8 + 4 + 1;
    // 13 = 8 + 4 + 1 without the stripe loop. Every flip must give a
    // value distinct from the original and from every other flip.
    std::vector<unsigned char> bytes = arbitraryBytes(100);
    for (size_t len : {size_t{100}, size_t{45}, size_t{13}}) {
        std::set<uint64_t> seen = {checksum64(bytes.data(), len)};
        for (size_t bit = 0; bit < 8 * len; ++bit) {
            bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
            seen.insert(checksum64(bytes.data(), len));
            bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
        }
        EXPECT_EQ(seen.size(), 8 * len + 1) << "len " << len;
    }
}

TEST(Hash, Fnv1aValuesArePinned)
{
    EXPECT_EQ(fnv1a64("", 0), fnv1aBasis);
    EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ull);
    EXPECT_EQ(fnv1a64("bar", 3, fnv1a64("foo", 3)),
              fnv1a64("foobar", 6));
}

TEST(Hash, FingerprintValuesArePinned)
{
    EXPECT_EQ(Fingerprint().digest(), fnv1aBasis);
    EXPECT_EQ(Fingerprint().mixBytes("abc", 3).digest(),
              0x875a326d07ebbb57ull);
    EXPECT_EQ(Fingerprint().mixU64(0x0123456789abcdefull).digest(),
              0x9fbd1fccd51494f5ull);
    EXPECT_EQ(Fingerprint().mixI64(-2).digest(), 0x5bcefe3d85e50249ull);
    EXPECT_EQ(Fingerprint().mixDouble(1.5).digest(),
              0xe0183602ea3b0e22ull);
    EXPECT_EQ(Fingerprint().mixString("gcc").digest(),
              0xec3b7e17b199a2e3ull);
    EXPECT_EQ(Fingerprint().mixFaultPlan(FaultPlan{}).digest(),
              0xabb84b7c4b67843dull);

    FaultPlan plan;
    plan.counterWidthBits = 40;
    plan.dropReadingProb = 0.01;
    plan.unavailableEvents = {PerfEvent::L3LoadMisses, PerfEvent::TlbMisses};
    EXPECT_EQ(Fingerprint().mixFaultPlan(plan).digest(),
              0xf476a0db34589b92ull);

    EXPECT_EQ(Fingerprint()
                  .mixString("mcf")
                  .mixU64(4)
                  .mixDouble(60.0)
                  .mixI64(-1)
                  .digest(),
              0x31fcdf61941597cdull);
}

TEST(Hash, HashStringValuesArePinned)
{
    EXPECT_EQ(hashString(""), 0xc3817c016ba4ff30ull);
    EXPECT_EQ(hashString("abc"), 0x29e32c04ec3f9c30ull);
    EXPECT_EQ(hashString("cpu0"), 0x65f1d93dbd314d0bull);
}

} // namespace
} // namespace tdp
