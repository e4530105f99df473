/**
 * @file
 * Non-cryptographic 64-bit hashes: the one home for hashing.
 *
 * Two functions with two jobs:
 *  - fnv1a64 is the byte-serial FNV-1a chain. Its values are part of
 *    stored keys and digests (trace-cache fingerprints, stream and
 *    checkpoint digests, RNG stream names), so they never change.
 *  - checksum64 is XXH64 (Collet): four independent multiply-rotate
 *    lanes over 32-byte stripes, so it runs at word rate rather than
 *    one dependent multiply per byte. It checks bulk payloads, where
 *    the hash is recomputed on every read.
 *
 * Both read bytes in little-endian order on every host, so a value
 * computed on one machine matches every other.
 */

#ifndef TDP_COMMON_HASH_HH
#define TDP_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>

namespace tdp {

/** FNV-1a 64-bit offset basis. */
constexpr uint64_t fnv1aBasis = 0xcbf29ce484222325ull;

/** FNV-1a 64-bit hash of a byte range, chainable via `seed`. */
uint64_t fnv1a64(const void *data, size_t len,
                 uint64_t seed = fnv1aBasis);

/** XXH64 of a byte range; seed 0 gives the published XXH64 values. */
uint64_t checksum64(const void *data, size_t len, uint64_t seed = 0);

} // namespace tdp

#endif // TDP_COMMON_HASH_HH
