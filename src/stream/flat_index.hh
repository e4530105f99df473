/**
 * @file
 * Flat open-addressing client -> row index for the session table.
 *
 * The session lookup is the hottest non-arithmetic operation in the
 * drain path: every popped sample resolves its client id to a SoA
 * row. This index is a single power-of-two array of 16-byte buckets
 * probed linearly from a splitmix64 hash, so a hit touches one or two
 * cache lines and a miss terminates at the first empty bucket.
 *
 * It is kept for memory, measured: with a reserved
 * std::unordered_map in its place (a heap node per client, counted),
 * one 10 s perfbench stream-hostile run per side at seed 0 moved
 * bytes_per_session from 278.7 to 302.6 B (+8.6%, bound 10%), with
 * equal digests (EXPERIMENTS.md "Flat index vs unordered_map").
 *
 * Deletion is tombstone-free backward-shift: erasing a client walks
 * the probe run and slides displaced entries back into the hole, so
 * the table never accumulates dead buckets and lookup cost stays
 * bounded by the (enforced <= 7/8) load factor, however many
 * sessions idle-eviction has churned through. Growth rehashes into a
 * doubled array; the *iteration-free* API (find/insert/set/erase
 * only) keeps every observable result independent of hash order,
 * which is what lets the SessionTable swap this in under the
 * bitwise-digest contract.
 */

#ifndef TDP_STREAM_FLAT_INDEX_HH
#define TDP_STREAM_FLAT_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tdp {
namespace stream {

/** Open-addressing client-id -> row map (linear probe). */
class FlatClientIndex
{
  public:
    /** Sentinel row meaning "client not present". */
    static constexpr uint32_t kNoRow = 0xffffffffu;

    /** @param capacityHint expected clients (rounded to 2^k). */
    explicit FlatClientIndex(size_t capacityHint = 0);

    /** Row of @p client, or kNoRow when absent. */
    uint32_t find(uint64_t client) const;

    /** Insert an absent client (fatal() on duplicates). */
    void insert(uint64_t client, uint32_t row);

    /** Re-point an existing client at a new row (fatal() if absent). */
    void set(uint64_t client, uint32_t row);

    /** Remove a client (fatal() if absent); backward-shift compact. */
    void erase(uint64_t client);

    /** Mapped clients. */
    size_t size() const { return size_; }

    /** Current bucket count (power of two). */
    size_t capacity() const { return buckets_.size(); }

    /** Bytes held by the bucket array. */
    size_t memoryBytes() const
    {
        return buckets_.capacity() * sizeof(Bucket);
    }

    /**
     * Debug checker: fatal() unless every occupied bucket is
     * reachable from its client's home bucket with no empty slot
     * inside the probe run (the linear-probe invariant backward-
     * shift deletion must preserve) and the occupied count matches
     * size(). O(capacity * probe length); called after checkpoint
     * restore and from the churn tests, not on any hot path.
     */
    void verifyInvariants() const;

  private:
    struct Bucket
    {
        uint64_t client = 0;
        uint32_t row = kNoRow; ///< kNoRow marks an empty bucket
    };

    /** Home bucket of a client id. */
    size_t homeOf(uint64_t client) const;

    /** Rehash into @p newCapacity buckets (power of two). */
    void rehash(size_t newCapacity);

    std::vector<Bucket> buckets_;
    size_t size_ = 0;
    size_t mask_ = 0;
};

} // namespace stream
} // namespace tdp

#endif // TDP_STREAM_FLAT_INDEX_HH
