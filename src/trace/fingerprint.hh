/**
 * @file
 * Structured FNV-1a fingerprinting for cache keys.
 *
 * The trace cache is content-addressed by *inputs*: a key is a hash
 * of every value that determines a simulated trace (workload launch
 * parameters, seed, quantum, fault plan) plus format and
 * code-version salts. The hasher here makes those keys stable and
 * unambiguous: every mix operation is length-prefixed by type so
 * e.g. the field sequence (1.0, 2) can never collide with (1, 2.0),
 * and doubles are mixed as their raw bit patterns so -0.0 / 0.0 and
 * every NaN payload are distinct inputs.
 */

#ifndef TDP_TRACE_FINGERPRINT_HH
#define TDP_TRACE_FINGERPRINT_HH

#include <cstdint>
#include <string>

#include "common/hash.hh"
#include "fault/fault_plan.hh"

namespace tdp {

/** Incremental FNV-1a 64 hasher over typed fields. */
class Fingerprint
{
  public:
    /** Mix raw bytes. */
    Fingerprint &mixBytes(const void *data, size_t len);

    /** Mix an unsigned 64-bit value. */
    Fingerprint &mixU64(uint64_t value);

    /** Mix a signed value (sign-extended through two's complement). */
    Fingerprint &mixI64(int64_t value);

    /** Mix a double as its 64-bit pattern (bit-exact, NaN-safe). */
    Fingerprint &mixDouble(double value);

    /** Mix a string, length-prefixed. */
    Fingerprint &mixString(const std::string &value);

    /** Mix every field of a fault plan, including the event mask. */
    Fingerprint &mixFaultPlan(const FaultPlan &plan);

    /** Current digest. */
    uint64_t digest() const { return hash_; }

  private:
    /** Tag each field with its type so field boundaries are unambiguous. */
    Fingerprint &mixTag(uint8_t tag);

    uint64_t hash_ = fnv1aBasis;
};

} // namespace tdp

#endif // TDP_TRACE_FINGERPRINT_HH
