/**
 * @file
 * Content-addressed on-disk cache of simulated traces.
 *
 * The paper's whole evaluation is driven by the same handful of
 * one-second-sampled workload traces, yet every bench binary
 * re-simulates them end-to-end. The cache decouples trace
 * *collection* from trace *use*: an entry is addressed purely by a
 * fingerprint of the inputs that determine the trace (the caller
 * computes it, typically over a full RunSpec plus format/code-version
 * salts) and stores the lossless binary serialisation of the result.
 * A later run with the same fingerprint loads a trace that is
 * bit-identical to what re-simulation would have produced.
 *
 * Failure policy: the cache is an accelerator, never a correctness
 * dependency. Any problem - unreadable file, truncation, checksum
 * mismatch, format/version drift, fingerprint mismatch inside the
 * file - logs a warning, counts the rejection and reports a miss, so
 * the caller silently falls back to simulation (PR 2's
 * graceful-degradation idiom). Store failures likewise only warn.
 *
 * Writes are atomic (temp file + rename) so a crashed or concurrent
 * writer can never publish a half-written entry; concurrent stores
 * of the same key are idempotent because both writers serialise
 * identical bytes.
 */

#ifndef TDP_TRACE_TRACE_CACHE_HH
#define TDP_TRACE_TRACE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "measure/trace.hh"

namespace tdp {

/** On-disk fingerprint -> SampleTrace store. */
class TraceCache
{
  public:
    /**
     * Lookup/store outcome counters since construction. Atomic
     * fields: runTraces stores entries from pool workers
     * concurrently.
     */
    struct Stats
    {
        /** Lookups satisfied from disk. */
        std::atomic<uint64_t> hits{0};

        /** Lookups with no entry on disk. */
        std::atomic<uint64_t> misses{0};

        /** Entries found but rejected (corrupt/stale/mismatched). */
        std::atomic<uint64_t> rejected{0};

        /** Entries written. */
        std::atomic<uint64_t> stores{0};

        /** Transient-I/O retries across loads and stores. */
        std::atomic<uint64_t> retries{0};
    };

    /**
     * @param root cache directory; created lazily on first store.
     */
    explicit TraceCache(std::string root);

    /** Cache directory. */
    const std::string &root() const { return root_; }

    /** Path of the entry for one fingerprint. */
    std::string entryPath(uint64_t fingerprint) const;

    /**
     * Load the entry for a fingerprint. Returns false on a miss or
     * on any rejected entry (with a warning naming the file and
     * reason); `out` is only written on success. An entry that
     * exists but cannot be *opened* is treated as a transient I/O
     * error and retried (3 attempts, short backoff) before giving
     * up; a parse/checksum failure is permanent and rejected
     * immediately.
     */
    bool lookup(uint64_t fingerprint, SampleTrace &out) const;

    /**
     * Store a trace under its fingerprint via hardened atomic
     * publication (fsync before rename, directory fsync, EXDEV copy
     * fallback). Transient publish failures are retried (3 attempts,
     * short backoff). Best effort beyond that: failures warn and
     * return false rather than aborting the run that just paid for
     * the simulation. Thread-safe.
     */
    bool store(uint64_t fingerprint, const SampleTrace &trace) const;

    /** Outcome counters. */
    const Stats &stats() const { return stats_; }

    /**
     * Cache root requested by the TDP_TRACE_CACHE environment
     * variable: unset, empty or "0" mean disabled (nullopt), "1"
     * means defaultRoot(), anything else is the directory itself.
     */
    static std::optional<std::string> rootFromEnvironment();

    /** Default cache directory (under the current directory). */
    static std::string defaultRoot();

  private:
    std::string root_;
    mutable Stats stats_;
};

} // namespace tdp

#endif // TDP_TRACE_TRACE_CACHE_HH
