/**
 * @file
 * Bounded retry with exponential backoff and deterministic jitter.
 *
 * Transient I/O failures (a trace-cache entry that momentarily cannot
 * be opened, an ENOSPC on a cache publish) are retried a bounded
 * number of times with exponentially growing delays. The jitter that
 * decorrelates retry storms is *derived*, not drawn: a hash of
 * (policy seed, key, attempt) scales each delay, so two runs back off
 * identically - the same discipline the FaultInjector applies to
 * measurement faults. The hash primitive is shared with the stream
 * drivers' deterministic per-client fault decisions.
 */

#ifndef TDP_RESILIENCE_RETRY_HH
#define TDP_RESILIENCE_RETRY_HH

#include <cstdint>

#include "common/units.hh"

namespace tdp {
namespace resilience {

/** Bounded-retry shape of the I/O layers. */
struct RetryPolicy
{
    /** Total attempts including the first (>= 1). */
    int maxAttempts = 3;

    /** Delay before the first retry (s). */
    Seconds baseDelay = 0.01;

    /** Backoff ceiling (s). */
    Seconds maxDelay = 1.0;

    /**
     * Jitter amplitude as a fraction of the delay: each delay is
     * scaled by a factor drawn deterministically from
     * [1 - jitterFrac, 1 + jitterFrac]. 0 disables jitter.
     */
    double jitterFrac = 0.5;

    /** Salt for the deterministic jitter stream. */
    uint64_t seed = 0;

    /**
     * Attempt count beyond which delayFor saturates: attempt 64 and
     * every attempt after it share one delay (and one jitter draw).
     * By 64 doublings any representable baseDelay has pinned at any
     * representable maxDelay, so the clamp changes nothing for
     * attempt <= 64 - it only stops an unbounded ceiling from
     * overflowing the backoff to infinity and keeps long-lived
     * retry loops from drawing fresh jitter without bound.
     */
    static constexpr int attemptSaturation = 64;

    /**
     * Backoff before retry number `attempt` (the attempt that just
     * failed: 1 for the first). Deterministic in (seed, taskKey,
     * attempt). fatal() if the policy is malformed.
     */
    Seconds delayFor(int attempt, uint64_t taskKey) const;

    /** fatal() when any field is out of range. */
    void validate() const;
};

/**
 * Stateless splitmix64-style hash used for jitter and for the
 * deterministic fault decisions of the stream drivers; exposed so
 * every deterministic coin-flip draws from one audited primitive.
 */
uint64_t mixHash(uint64_t a, uint64_t b, uint64_t c);

/** mixHash mapped to [0, 1). */
double hashUnit(uint64_t a, uint64_t b, uint64_t c);

} // namespace resilience
} // namespace tdp

#endif // TDP_RESILIENCE_RETRY_HH
