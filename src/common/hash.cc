/**
 * @file
 * Implementation of the FNV-1a and XXH64 hashes.
 */

#include "common/hash.hh"

#include <bit>
#include <cstring>

namespace tdp {

namespace {

constexpr uint64_t prime1 = 0x9e3779b185ebca87ull;
constexpr uint64_t prime2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t prime3 = 0x165667b19e3779f9ull;
constexpr uint64_t prime4 = 0x85ebca77c2b2ae63ull;
constexpr uint64_t prime5 = 0x27d4eb2f165667c5ull;

/** Load a little-endian word from unaligned memory. */
template <typename T>
T
loadLe(const unsigned char *p)
{
    T value = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&value, p, sizeof(T));
    } else {
        for (size_t i = 0; i < sizeof(T); ++i)
            value |= static_cast<T>(p[i]) << (8 * i);
    }
    return value;
}

uint64_t
xxRound(uint64_t acc, uint64_t input)
{
    acc += input * prime2;
    acc = std::rotl(acc, 31);
    return acc * prime1;
}

uint64_t
xxMerge(uint64_t acc, uint64_t lane)
{
    acc ^= xxRound(0, lane);
    return acc * prime1 + prime4;
}

} // namespace

uint64_t
fnv1a64(const void *data, size_t len, uint64_t seed)
{
    constexpr uint64_t prime = 0x100000001b3ull;
    const unsigned char *bytes = static_cast<const unsigned char *>(data);
    uint64_t hash = seed;
    for (size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= prime;
    }
    return hash;
}

uint64_t
checksum64(const void *data, size_t len, uint64_t seed)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    const unsigned char *const end = p + len;
    uint64_t hash;

    if (len >= 32) {
        uint64_t v1 = seed + prime1 + prime2;
        uint64_t v2 = seed + prime2;
        uint64_t v3 = seed;
        uint64_t v4 = seed - prime1;
        const unsigned char *const last_stripe = end - 32;
        do {
            v1 = xxRound(v1, loadLe<uint64_t>(p));
            v2 = xxRound(v2, loadLe<uint64_t>(p + 8));
            v3 = xxRound(v3, loadLe<uint64_t>(p + 16));
            v4 = xxRound(v4, loadLe<uint64_t>(p + 24));
            p += 32;
        } while (p <= last_stripe);
        hash = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
               std::rotl(v4, 18);
        hash = xxMerge(hash, v1);
        hash = xxMerge(hash, v2);
        hash = xxMerge(hash, v3);
        hash = xxMerge(hash, v4);
    } else {
        hash = seed + prime5;
    }
    hash += static_cast<uint64_t>(len);

    for (; end - p >= 8; p += 8) {
        hash ^= xxRound(0, loadLe<uint64_t>(p));
        hash = std::rotl(hash, 27) * prime1 + prime4;
    }
    if (end - p >= 4) {
        hash ^= static_cast<uint64_t>(loadLe<uint32_t>(p)) * prime1;
        hash = std::rotl(hash, 23) * prime2 + prime3;
        p += 4;
    }
    for (; p < end; ++p) {
        hash ^= *p * prime5;
        hash = std::rotl(hash, 11) * prime1;
    }

    hash ^= hash >> 33;
    hash *= prime2;
    hash ^= hash >> 29;
    hash *= prime3;
    hash ^= hash >> 32;
    return hash;
}

} // namespace tdp
