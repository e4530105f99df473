/**
 * @file
 * Hierarchical simulation-wide statistics registry (gem5-style).
 *
 * Components register named statistics once (dotted hierarchical
 * paths, e.g. "sim.events.processed") and then update them through
 * small integer ids. Three kinds are supported:
 *
 *  - scalar counters: monotonically accumulated uint64 sums;
 *  - gauges: last-written double values (a global sequence stamp
 *    decides "last" across threads);
 *  - histograms: log2-bucketed uint64 distributions (bucket 0 holds
 *    the value 0, bucket b >= 1 holds [2^(b-1), 2^b - 1]).
 *
 * Concurrency model: every updating thread owns a lock-free shard.
 * Updates are relaxed atomic operations on the shard's own slots -
 * no locks, no allocation in steady state - so `--jobs N` experiment
 * workers never contend. snapshot() merges all shards under the
 * registry mutex; registration is likewise a cold, mutex-guarded
 * path. When a thread exits, its shards are folded into their
 * registries' retired totals and freed, so pools that start threads
 * per call hold one shard per live thread, not one per thread ever.
 * With the registry disabled (the default) every update is a single
 * relaxed load and branch, and bench output is untouched.
 */

#ifndef TDP_OBS_STATS_REGISTRY_HH
#define TDP_OBS_STATS_REGISTRY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace tdp {
namespace obs {

/** What a registered statistic accumulates. */
enum class StatKind : uint8_t { Counter, Gauge, Histogram };

/** Opaque handle for the hot-path update calls. */
struct StatId
{
    StatKind kind = StatKind::Counter;

    /** Index within the kind's slot space; ~0 means invalid. */
    uint32_t index = invalidIndex;

    static constexpr uint32_t invalidIndex = 0xffffffff;

    bool valid() const { return index != invalidIndex; }
};

/** Log2 histogram bucket count (covers the full uint64 range). */
constexpr int histogramBuckets = 65;

/** Bucket index of one observed value (0 -> 0, else bit width). */
constexpr int
histogramBucketOf(uint64_t value)
{
    int bucket = 0;
    while (value != 0) {
        ++bucket;
        value >>= 1;
    }
    return bucket;
}

/** Inclusive lower bound of one bucket. */
constexpr uint64_t
histogramBucketLow(int bucket)
{
    return bucket == 0 ? 0 : uint64_t(1) << (bucket - 1);
}

/** Sharded, hierarchical stats store. */
class StatsRegistry
{
  public:
    /** Merged view of one histogram. */
    struct HistogramData
    {
        std::array<uint64_t, histogramBuckets> buckets{};
        uint64_t count = 0;
        uint64_t sum = 0;
    };

    /** Merged view of every registered statistic. */
    struct Snapshot
    {
        std::map<std::string, uint64_t> counters;
        std::map<std::string, double> gauges;
        std::map<std::string, HistogramData> histograms;
    };

    StatsRegistry() = default;
    ~StatsRegistry();

    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    /** The process-wide registry used by the instrumented layers. */
    static StatsRegistry &global();

    /**
     * Turn collection on or off. Disabled updates return after one
     * relaxed load; registration is always allowed so ids can be
     * resolved once regardless of the runtime switch.
     */
    void
    setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    /** True when updates are being collected. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Register (or look up) a statistic by hierarchical path. Cold
     * path, thread-safe; re-registering an existing path returns the
     * same id, so independent Server instances fold into one line.
     * Registering an existing path as a different kind is fatal.
     * @{
     */
    StatId counter(const std::string &path);
    StatId gauge(const std::string &path);
    StatId histogram(const std::string &path);
    /** @} */

    /** Hot-path updates (no-ops when disabled or id invalid). @{ */
    void add(StatId id, uint64_t delta = 1);
    void set(StatId id, double value);
    void observe(StatId id, uint64_t value);
    /** @} */

    /** Cold-path register-and-update conveniences (publish time). @{ */
    void addNamed(const std::string &path, uint64_t delta);
    void setNamed(const std::string &path, double value);
    void observeNamed(const std::string &path, uint64_t value);
    /** @} */

    /** Merge every shard into one consistent view. */
    Snapshot snapshot() const;

    /** Zero every slot of every shard (registrations survive). */
    void reset();

    /** Registered statistics across all kinds. */
    size_t registeredCount() const;

    /** Shards of live threads (an exited thread's shard is retired). */
    size_t shardCount() const;

    /** Emit a snapshot as one JSON object (counters/gauges/histograms). */
    static void writeSnapshotJson(std::ostream &os,
                                  const Snapshot &snapshot);

    /** Same, as a value within an in-flight JSON document. */
    static void writeSnapshotJson(class JsonWriter &json,
                                  const Snapshot &snapshot);

  private:
    /** Slots per allocation chunk; chunks never move once published. */
    static constexpr uint32_t chunkSize = 256;

    /** Maximum chunks per kind (chunkSize * maxChunks stats). */
    static constexpr uint32_t maxChunks = 64;

    /** One histogram's slots: buckets + count + sum. */
    struct HistogramSlots
    {
        std::array<std::atomic<uint64_t>, histogramBuckets> buckets{};
        std::atomic<uint64_t> count{0};
        std::atomic<uint64_t> sum{0};
    };

    /** One gauge's slots: value bits + global write stamp. */
    struct GaugeSlot
    {
        std::atomic<uint64_t> bits{0};
        std::atomic<uint64_t> stamp{0};
    };

    template <typename Slot>
    struct Chunk
    {
        std::array<Slot, chunkSize> slots{};
    };

    /**
     * Fixed directory of lazily-published chunks: the hot path loads
     * a chunk pointer with acquire order and indexes into it, so
     * growth never invalidates concurrent readers.
     */
    template <typename Slot>
    struct ChunkedSlots
    {
        std::array<std::atomic<Chunk<Slot> *>, maxChunks> chunks{};

        ~ChunkedSlots()
        {
            for (auto &c : chunks)
                delete c.load(std::memory_order_relaxed);
        }

        /** Slot lookup; nullptr when the chunk is unpublished. */
        Slot *
        find(uint32_t index)
        {
            const uint32_t chunk = index / chunkSize;
            if (chunk >= maxChunks)
                return nullptr;
            Chunk<Slot> *c =
                chunks[chunk].load(std::memory_order_acquire);
            return c ? &c->slots[index % chunkSize] : nullptr;
        }

        /** Publish the chunk holding index (cold, under growMutex). */
        Slot *
        grow(uint32_t index, std::mutex &grow_mutex)
        {
            const uint32_t chunk = index / chunkSize;
            if (chunk >= maxChunks)
                return nullptr;
            std::lock_guard<std::mutex> lock(grow_mutex);
            Chunk<Slot> *c =
                chunks[chunk].load(std::memory_order_acquire);
            if (!c) {
                c = new Chunk<Slot>();
                chunks[chunk].store(c, std::memory_order_release);
            }
            return &c->slots[index % chunkSize];
        }
    };

    /** Per-thread slot storage; owned by the registry until its
     *  thread exits and retire() folds it into retired_. */
    struct Shard
    {
        ChunkedSlots<std::atomic<uint64_t>> counters;
        ChunkedSlots<GaugeSlot> gauges;
        ChunkedSlots<HistogramSlots> histograms;
        std::mutex growMutex;
    };

    /** This thread's shard, created and registered on first use. */
    Shard &localShard();

    /** Fold an exiting thread's shard into retired_ and free it. */
    void retire(Shard *shard);

    /** Totals of the shards of exited threads, by slot index. */
    struct Retired
    {
        std::vector<uint64_t> counters;
        /** Gauge (stamp, value bits) of the latest retired write. */
        std::vector<std::pair<uint64_t, uint64_t>> gauges;
        std::vector<HistogramData> histograms;
    };

    StatId registerStat(const std::string &path, StatKind kind);

    std::atomic<bool> enabled_{false};

    mutable std::mutex mutex_;
    struct Def
    {
        std::string path;
        StatKind kind;
        uint32_t index;
    };
    std::vector<Def> defs_;
    std::unordered_map<std::string, size_t> defsByPath_;
    std::array<uint32_t, 3> nextIndex_{};
    std::vector<std::unique_ptr<Shard>> shards_;
    Retired retired_;

    /** Global gauge write ordering. */
    std::atomic<uint64_t> gaugeStamp_{0};

    /** Process-unique id backing the per-thread shard cache. */
    std::atomic<uint64_t> registryEpoch_{0};
};

} // namespace obs
} // namespace tdp

#endif // TDP_OBS_STATS_REGISTRY_HH
