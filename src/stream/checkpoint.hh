/**
 * @file
 * Crash-safe checkpointing of the streaming estimation service.
 *
 * A checkpoint is one binary file holding the *complete* mutable
 * state of a StreamService at a tick boundary: every shard's
 * SessionTable columns and queued ring samples, every rail's
 * WindowedRls block partials, stored window rows and DriftGuard
 * state, the primary-model coefficients, the cumulative
 * ingest/session/SLO counters, the latency histogram and the fold
 * digest itself. Restoring a checkpoint into a freshly constructed
 * service (same config, same trained estimator) and re-offering
 * every sample after the checkpoint tick therefore reproduces the
 * uninterrupted run bit for bit - verdicts, published watts, refits
 * and fold digest - at any `--jobs` count. That is the bounded-loss
 * contract: a crash forgets at most `everyTicks` ticks of input,
 * never any state.
 *
 * Format ("TDPC", version 2, native endianness - a checkpoint is a
 * crash-recovery artefact for the machine that wrote it, not an
 * interchange format):
 *
 *   magic[4] version:u32 fingerprint:u64 generation:u64 tick:u64
 *   digest:u64 sectionCount:u32
 *   { id:u32 length:u64 payload[length] checksum:u64 } x sectionCount
 *
 * The checksums form one XXH64 (checksum64) chain: the header's
 * checksum seeds the first section's, and each section's checksum
 * covers its id, length and payload, seeded by the one before. Every
 * byte of the file is therefore covered, a torn write is detected
 * wherever it lands, and the last link is the file checksum - no
 * second pass. The file is serialised into one buffer sized by a
 * counting pass over the same encoders (StreamCheckpointer reuses
 * its buffer from one checkpoint to the next); a SessionTable section
 * stores its SoA columns one after another, each written and read
 * with one bounded copy. Publication goes through
 * writeFileAtomic (temp + fsync + rename + directory fsync) into a
 * two-generation rotation - generation g lands in `<base>.gen<g%2>`
 * - so the previous complete checkpoint always survives the next
 * write. The loader reads each generation with one bounded read,
 * validates both in memory (every length and count is checked
 * against the bytes that remain before anything is allocated) and
 * falls back to the older one with a warning when the newest is
 * torn or corrupt; only two unusable generations (or a
 * config-fingerprint mismatch) fail the restore. Version 1 files
 * (FNV-1a section checksums, row-wise sessions) are rejected by
 * their version.
 *
 * The fingerprint hashes every determinism-relevant config field
 * plus the (runtime-immutable) fallback-rung coefficients, so a
 * checkpoint from a different seed, topology or training run is
 * rejected instead of silently diverging.
 */

#ifndef TDP_STREAM_CHECKPOINT_HH
#define TDP_STREAM_CHECKPOINT_HH

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace tdp {
namespace stream {

class StreamService;

/** Checkpoint format version written by this build. */
constexpr uint32_t kCheckpointVersion = 2;

/** Section ids. @{ */
constexpr uint32_t kSecIngest = 1;  ///< ShardedIngest counters
constexpr uint32_t kSecService = 2; ///< rails, digest, counters, SLO
constexpr uint32_t kSecMeta = 3;    ///< opaque harness payload
constexpr uint32_t kSecShardBase = 100; ///< + shard: sessions + ring
/** @} */

/**
 * Serializer the checkpointed classes write themselves into. A writer
 * made without a buffer only counts bytes: the checkpoint encoder
 * runs every encoder once that way to size the file buffer, then
 * again into it. Values are stored as raw native bytes; doubles go through
 * their bit pattern so NaNs and -0.0 round-trip exactly.
 */
class CheckpointWriter
{
  public:
    /** @param out buffer to append to; nullptr only counts bytes. */
    explicit CheckpointWriter(std::string *out = nullptr) : out_(out) {}

    void u8(uint8_t v) { bytes(&v, sizeof v); }
    void u32(uint32_t v) { bytes(&v, sizeof v); }
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }

    void
    bytes(const void *p, size_t n)
    {
        if (out_ != nullptr && n != 0)
            out_->append(static_cast<const char *>(p), n);
        size_ += n;
    }

    /** A whole column (its elements, no count) in one bytes() call. */
    template <typename T>
    void
    column(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(v.data(), v.size() * sizeof(T));
    }

    /** Bytes written (or counted) so far. */
    size_t size() const { return size_; }

  private:
    std::string *out_;
    size_t size_ = 0;
};

/**
 * Bounds-checked reader over one section payload. Corruption never
 * fatals: the first short or invalid read flips the reader into a
 * failed state (subsequent reads return zeros) and the restore path
 * degrades to the previous generation or a clean error.
 */
class CheckpointReader
{
  public:
    CheckpointReader(const void *data, size_t size)
        : data_(static_cast<const unsigned char *>(data)), size_(size)
    {
    }

    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }

    /** Record the first failure; later reads keep returning zeros. */
    void fail(const std::string &why)
    {
        if (ok_) {
            ok_ = false;
            error_ = why;
        }
    }

    uint8_t u8() { return read<uint8_t>(); }
    uint32_t u32() { return read<uint32_t>(); }
    uint64_t u64() { return read<uint64_t>(); }
    double f64() { return read<double>(); }

    void bytes(void *out, size_t n);

    /**
     * Read @p n elements into @p out (resized to @p n) with one
     * bounded copy. Fails, leaving @p out untouched and allocating
     * nothing, when fewer than @p n elements remain.
     */
    template <typename T>
    void
    column(std::vector<T> &out, size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (n > remaining() / sizeof(T)) {
            fail("short read");
            return;
        }
        out.resize(n);
        bytes(out.data(), n * sizeof(T));
    }

    /** Unconsumed payload bytes (0 once failed). */
    size_t remaining() const { return ok_ ? size_ - pos_ : 0; }

  private:
    template <typename T>
    T read()
    {
        T v{};
        bytes(&v, sizeof v);
        return v;
    }

    const unsigned char *data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
};

/** Identity of one written (or restored) checkpoint. */
struct CheckpointInfo
{
    uint64_t generation = 0;

    /** Service tick the checkpoint captured (ticks fully folded). */
    uint64_t tick = 0;

    /** Service fold digest at that tick. */
    uint64_t digest = 0;

    /**
     * File checksum: the last link of the checksum64 chain over the
     * header and every section (see the format above).
     */
    uint64_t crc = 0;

    std::string path;
};

/** Rotation slot of @p generation: `<base>.gen<generation % 2>`. */
std::string checkpointGenerationPath(const std::string &base,
                                     uint64_t generation);

/**
 * Serialize the full service state and atomically publish it as
 * generation @p generation of @p base. @p meta is an opaque payload
 * the restorer hands back (a caller's run identity). False on I/O
 * failure with a one-line reason in *error;
 * the previous generation is never disturbed.
 */
bool writeStreamCheckpoint(const StreamService &service,
                           const std::string &base, uint64_t generation,
                           const std::string &meta, CheckpointInfo *info,
                           std::string *error);

/** Outcome of one restore attempt. */
struct RestoreResult
{
    bool ok = false;

    /**
     * True when the newest on-disk generation was unusable (torn,
     * corrupt, wrong fingerprint) and an older one served instead.
     */
    bool usedFallback = false;

    /** The restored checkpoint (valid when ok). */
    CheckpointInfo info;

    /** The opaque meta payload stored at write time. */
    std::string meta;

    /** Human-readable fallback detail ("" when the newest served). */
    std::string warning;

    /** Failure reason ("" when ok). */
    std::string error;
};

/**
 * Restore the newest usable generation of @p base into @p service,
 * which must be freshly constructed (tick 0, no sessions) with the
 * same config and trained estimator as the writer - enforced via
 * the config fingerprint. On failure the service contents are
 * unspecified and must be discarded; nothing is ever fatal()ed for
 * on-disk corruption.
 */
RestoreResult restoreStreamCheckpoint(StreamService &service,
                                      const std::string &base);

/**
 * Read the opaque meta payload of the newest parseable generation
 * without restoring anything - a caller that stores its run
 * identity there needs it *before* it can construct the matching
 * service. False with a reason when no generation parses.
 */
bool peekStreamCheckpointMeta(const std::string &base,
                              std::string *meta, std::string *error);

/**
 * Periodic checkpoint driver: call onTick() after every
 * service.tick() and a checkpoint is taken whenever the tick count
 * crosses the cadence, in deterministic shard order, plus on demand
 * (writeNow(), e.g. from a shutdown drain).
 *
 * A checkpoint is taken in two steps. On the tick, the checkpointer
 * encodes the service state into one reused buffer and counts the
 * attempt with the service - everything that must be deterministic.
 * One writer thread, owned by the checkpointer, then publishes that
 * buffer with writeFileAtomic (temp file, fsync, rename, directory
 * fsync), so the file I/O leaves the tick while durability stays
 * what it was. At most one write is in flight: the next checkpoint
 * tick, writeNow() and the destructor first reap it, waiting when it
 * is unfinished (each such wait is counted in waits()).
 *
 * A write's outcome - written()/failures(), generation(), last(),
 * the service's checkpoint counters and its flight event - is
 * applied when it is reaped. Reap points are fixed by the cadence,
 * never by I/O timing, so every service counter stays deterministic
 * at any worker count. Failures are counted and warned, never fatal:
 * the generation is not advanced, the next attempt retries it, and
 * the service keeps running on the previous generation.
 */
class StreamCheckpointer
{
  public:
    /**
     * @param startGeneration 0 starts a fresh rotation (both slots
     *        of @p base are deleted); pass a restored generation to
     *        continue its rotation instead.
     */
    StreamCheckpointer(StreamService &service, std::string base,
                       uint64_t everyTicks,
                       uint64_t startGeneration = 0);

    /** Reaps the write in flight, then stops the writer thread. */
    ~StreamCheckpointer();

    StreamCheckpointer(const StreamCheckpointer &) = delete;
    StreamCheckpointer &operator=(const StreamCheckpointer &) = delete;

    /** Opaque payload stored in every subsequent checkpoint. */
    void setMeta(std::string payload) { meta_ = std::move(payload); }

    /**
     * On a cadence tick: reap the previous write, encode this tick's
     * checkpoint and hand it to the writer.
     */
    void onTick();

    /**
     * Hand off generation last+1 and reap it: true once it is
     * published.
     */
    bool writeNow();

    const std::string &base() const { return base_; }
    uint64_t everyTicks() const { return every_; }

    /** Last generation published (0 before the first). */
    uint64_t generation() const { return generation_; }

    /** Reaped writes that published / failed. @{ */
    uint64_t written() const { return written_; }
    uint64_t failures() const { return failures_; }
    /** @} */

    /** Reaps that found the write unfinished and waited for it. */
    uint64_t waits() const { return waits_; }

    const CheckpointInfo &last() const { return last_; }

  private:
    void handOff();
    bool reap();
    void writerLoop();

    StreamService &service_;
    std::string base_;
    std::array<std::string, 2> slotPaths_; ///< `<base>.gen0`, `.gen1`
    uint64_t every_;
    std::string meta_;
    uint64_t generation_ = 0;
    uint64_t written_ = 0;
    uint64_t failures_ = 0;
    uint64_t waits_ = 0;
    CheckpointInfo last_;

    /**
     * The write handed to the writer: its encoded file and identity.
     * The writer reads them while the write is in flight; the tick
     * touches them again only after reaping it.
     */
    std::string file_;
    CheckpointInfo pending_;
    bool inFlight_ = false; ///< tick side: handed off, not yet reaped

    /** Hand-off state, guarded by mutex_. @{ */
    std::mutex mutex_;
    std::condition_variable wake_; ///< tick -> writer: queued_ or stop_
    std::condition_variable done_; ///< writer -> tick: finished_
    bool queued_ = false;
    bool finished_ = false;
    bool stop_ = false;
    bool ok_ = false;
    std::string error_;
    /** @} */

    std::thread writer_;
};

} // namespace stream
} // namespace tdp

#endif // TDP_STREAM_CHECKPOINT_HH
