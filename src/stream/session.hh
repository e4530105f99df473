/**
 * @file
 * Per-client session hygiene: validation, wrap recovery, quarantine
 * and idle eviction.
 *
 * One SessionTable serves one ingest shard, so the drain phase can
 * run shards in parallel with no shared mutable state. Session state
 * lives in structure-of-arrays columns (the PR 3 discipline): the
 * eviction sweep and the quarantine scans walk contiguous memory, and
 * removal is swap-with-last so the table never fragments.
 *
 * Validation mirrors what a real collector must survive:
 *
 *  - non-finite or out-of-range raw counters (a corrupt reading must
 *    not poison the wrap recovery, which fatals on garbage);
 *  - duplicate and out-of-order sequence numbers (network replays);
 *  - stale timestamps (a client clock that jumped backwards);
 *  - counter wraparound, recovered via wrappedCounterDelta exactly
 *    like the driver-side sampler (PR 2);
 *  - zero-cycle windows (no progress - the event-rate derivation
 *    would divide by zero).
 *
 * A client that keeps failing validation is *quarantined*, mirroring
 * the PR 5 task quarantine: its samples are refused at the door until
 * idle eviction forgets the session. Memory stays bounded either way.
 */

#ifndef TDP_STREAM_SESSION_HH
#define TDP_STREAM_SESSION_HH

#include <array>
#include <cstdint>
#include <vector>

#include "stream/flat_index.hh"
#include "stream/sample.hh"

namespace tdp {
namespace stream {

class CheckpointWriter;
class CheckpointReader;

/** What the session layer decided about one sample. */
enum class Verdict : uint8_t
{
    Accepted,      ///< valid; deltas recovered, feeds estimation
    Baseline,      ///< first valid contact; primes the wrap recovery
    NonFinite,     ///< NaN/Inf counter, time, interval or os delta
    OutOfRange,    ///< raw counter outside [0, 2^width), bad cpus
    DuplicateSeq,  ///< sequence number already seen
    OutOfOrderSeq, ///< sequence number went backwards
    StaleTime,     ///< client clock did not advance
    ZeroCycles,    ///< no cycle progress across the window
    Quarantined,   ///< client is quarantined; sample refused
};

/** Display name of a verdict. */
const char *verdictName(Verdict verdict);

/** True for the verdicts that count toward quarantine. */
bool verdictIsInvalid(Verdict verdict);

/** Session-layer configuration. */
struct SessionConfig
{
    /** PMU counter width the clients' raw counters wrap at. */
    int counterWidthBits = 40;

    /** Ticks of silence before a session is evicted. */
    uint64_t idleTimeoutTicks = 64;

    /** Invalid samples before a client is quarantined. */
    uint32_t quarantineThreshold = 8;

    /** Sliding per-client window of recent total-power estimates. */
    size_t wattsWindow = 8;
};

/** SoA session store of one ingest shard. */
class SessionTable
{
  public:
    /** Outcome of admitting one sample into its session. */
    struct Admit
    {
        Verdict verdict = Verdict::Accepted;

        /** Recovered counter deltas; valid only when Accepted. */
        CounterSnapshot deltas;

        /** Counters that wrapped within this sample (<= events). */
        uint32_t wraps = 0;

        /** True when this sample tipped the client into quarantine. */
        bool newlyQuarantined = false;
    };

    /** Deterministic hygiene accounting. */
    struct Stats
    {
        uint64_t created = 0;
        uint64_t accepted = 0;
        uint64_t baselines = 0;
        uint64_t wraps = 0;
        uint64_t nonFinite = 0;
        uint64_t outOfRange = 0;
        uint64_t duplicateSeq = 0;
        uint64_t outOfOrderSeq = 0;
        uint64_t staleTime = 0;
        uint64_t zeroCycles = 0;
        uint64_t rejectedQuarantined = 0;
        uint64_t quarantines = 0;
        uint64_t evicted = 0;
    };

    /** fatal() on a malformed config. */
    explicit SessionTable(const SessionConfig &config);

    /** Validate one sample against (and update) its session. */
    Admit admit(uint64_t tick, const StreamSample &sample);

    /** True when the client exists and is quarantined. */
    bool isQuarantined(uint64_t client) const;

    /** Slide one total-power estimate into the client's window. */
    void recordWatts(uint64_t client, double watts);

    /**
     * Mean of the client's sliding estimate window; NaN for an
     * unknown client or an empty window.
     */
    double windowMeanWatts(uint64_t client) const;

    /**
     * Drop every session idle for >= idleTimeoutTicks at @p now.
     * Returns the number evicted. Swap-with-last keeps the columns
     * dense; iteration order is deterministic.
     */
    size_t evictIdle(uint64_t now);

    /** Live sessions (quarantined included). */
    size_t active() const { return clients_.size(); }

    /** Currently quarantined sessions. */
    size_t quarantinedCount() const { return quarantinedNow_; }

    /**
     * Bytes held for session state (SoA column capacity plus the
     * flat index); perfbench stream-hostile reports it per session.
     */
    size_t memoryBytes() const;

    const SessionConfig &config() const { return config_; }
    const Stats &stats() const { return stats_; }

    /** Serialize every column plus the stats (checkpoint.hh). */
    void checkpointSave(CheckpointWriter &w) const;

    /**
     * Restore into an *empty* table of the same config: rows are
     * re-appended in stored order, the flat index is rebuilt and its
     * invariants re-verified. False (reader failed, table contents
     * unspecified) on any inconsistency; never fatal.
     */
    bool checkpointRestore(CheckpointReader &r);

  private:
    /** Payload-only verdict precursors (no session state involved). */
    struct PayloadClass
    {
        bool finite = true;
        bool inRange = true;
    };

    /** Classify one sample's header fields and raw counters. */
    PayloadClass classify(const StreamSample &sample) const;

    /** Row index of a client, creating the row if absent. */
    uint32_t rowOf(uint64_t client, uint64_t tick);

    /** Count one invalid sample; quarantine at the threshold. */
    void recordInvalid(uint32_t row, Admit &admit);

    /** Remove row @p row (swap-with-last). */
    void removeRow(uint32_t row);

    SessionConfig config_;
    Stats stats_;
    size_t quarantinedNow_ = 0;

    // SoA columns, index-parallel.
    std::vector<uint64_t> clients_;
    std::vector<uint64_t> lastSeq_;
    std::vector<double> lastTime_;
    std::vector<uint64_t> lastSeen_;
    std::vector<uint8_t> quarantined_;
    std::vector<uint8_t> hasBaseline_;
    std::vector<uint32_t> invalidCount_;

    /** Strided [row * numPerfEvents] last raw counter values. */
    std::vector<double> lastRaw_;

    /** Strided [row * wattsWindow] recent total-power estimates. */
    std::vector<double> watts_;
    std::vector<uint32_t> wattsCount_;

    /** Open-addressing client -> row map (one or two cache lines). */
    FlatClientIndex index_;
};

} // namespace stream
} // namespace tdp

#endif // TDP_STREAM_SESSION_HH
