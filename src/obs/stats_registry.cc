/**
 * @file
 * Implementation of the sharded stats registry.
 */

#include "obs/stats_registry.hh"

#include <cstring>

#include "common/logging.hh"
#include "obs/json_writer.hh"

namespace tdp {
namespace obs {

namespace {

/**
 * Live registries by process-unique epoch. A thread's cached (epoch,
 * shard) pairs can never alias a later registry constructed at the
 * same address, and an exiting thread reaches through this directory
 * only registries still alive. Leaked like StatsRegistry::global().
 */
struct Directory
{
    std::mutex mutex;
    uint64_t nextEpoch = 1;
    std::unordered_map<uint64_t, StatsRegistry *> live;
};

Directory &
directory()
{
    static Directory *dir = new Directory();
    return *dir;
}

/** Slot @p index of @p slots, grown to hold it. */
template <typename T>
T &
slotAt(std::vector<T> &slots, uint32_t index)
{
    if (slots.size() <= index)
        slots.resize(index + 1);
    return slots[index];
}

const char *
kindName(StatKind kind)
{
    switch (kind) {
      case StatKind::Counter: return "counter";
      case StatKind::Gauge: return "gauge";
      case StatKind::Histogram: return "histogram";
    }
    return "?";
}

uint64_t
doubleBits(double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

double
bitsDouble(uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

} // namespace

StatsRegistry &
StatsRegistry::global()
{
    // Leaked on purpose: worker threads may touch their shards up to
    // process exit, after static destructors would have run.
    static StatsRegistry *registry = new StatsRegistry();
    return *registry;
}

StatId
StatsRegistry::registerStat(const std::string &path, StatKind kind)
{
    if (path.empty())
        fatal("StatsRegistry: empty stat path");
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = defsByPath_.find(path);
    if (it != defsByPath_.end()) {
        const Def &def = defs_[it->second];
        if (def.kind != kind)
            fatal("StatsRegistry: '%s' already registered as a %s, "
                  "cannot re-register as a %s",
                  path.c_str(), kindName(def.kind), kindName(kind));
        return StatId{kind, def.index};
    }
    const auto kind_slot = static_cast<size_t>(kind);
    const uint32_t index = nextIndex_[kind_slot];
    if (index >= chunkSize * maxChunks)
        fatal("StatsRegistry: too many %s stats (max %u)",
              kindName(kind), chunkSize * maxChunks);
    ++nextIndex_[kind_slot];
    defs_.push_back(Def{path, kind, index});
    defsByPath_.emplace(path, defs_.size() - 1);
    return StatId{kind, index};
}

StatId
StatsRegistry::counter(const std::string &path)
{
    return registerStat(path, StatKind::Counter);
}

StatId
StatsRegistry::gauge(const std::string &path)
{
    return registerStat(path, StatKind::Gauge);
}

StatId
StatsRegistry::histogram(const std::string &path)
{
    return registerStat(path, StatKind::Histogram);
}

StatsRegistry::~StatsRegistry()
{
    const uint64_t epoch = registryEpoch_.load(std::memory_order_acquire);
    if (epoch == 0)
        return;
    Directory &dir = directory();
    std::lock_guard<std::mutex> lock(dir.mutex);
    dir.live.erase(epoch);
}

StatsRegistry::Shard &
StatsRegistry::localShard()
{
    /** This thread's shards, retired into their registries at exit. */
    struct ThreadShards
    {
        struct Entry
        {
            uint64_t epoch;
            Shard *shard;
        };
        std::vector<Entry> entries;

        ~ThreadShards()
        {
            Directory &dir = directory();
            std::lock_guard<std::mutex> lock(dir.mutex);
            for (const Entry &entry : entries) {
                // A registry destroyed first has freed the shard.
                const auto it = dir.live.find(entry.epoch);
                if (it != dir.live.end())
                    it->second->retire(entry.shard);
            }
        }
    };
    thread_local ThreadShards cache;

    // Lazily stamp this registry with its process-unique epoch.
    uint64_t epoch = registryEpoch_.load(std::memory_order_acquire);
    if (epoch == 0) {
        Directory &dir = directory();
        std::lock_guard<std::mutex> lock(dir.mutex);
        epoch = registryEpoch_.load(std::memory_order_relaxed);
        if (epoch == 0) {
            epoch = dir.nextEpoch++;
            dir.live.emplace(epoch, this);
            registryEpoch_.store(epoch, std::memory_order_release);
        }
    }

    for (const ThreadShards::Entry &entry : cache.entries)
        if (entry.epoch == epoch)
            return *entry.shard;

    auto shard = std::make_unique<Shard>();
    Shard *raw = shard.get();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shards_.push_back(std::move(shard));
    }
    cache.entries.push_back(ThreadShards::Entry{epoch, raw});
    return *raw;
}

void
StatsRegistry::retire(Shard *shard)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Def &def : defs_) {
        switch (def.kind) {
          case StatKind::Counter:
            if (auto *slot = shard->counters.find(def.index))
                slotAt(retired_.counters, def.index) +=
                    slot->load(std::memory_order_relaxed);
            break;
          case StatKind::Gauge:
            if (auto *slot = shard->gauges.find(def.index)) {
                auto &latest = slotAt(retired_.gauges, def.index);
                const uint64_t stamp =
                    slot->stamp.load(std::memory_order_acquire);
                if (stamp > latest.first)
                    latest = {stamp,
                              slot->bits.load(std::memory_order_relaxed)};
            }
            break;
          case StatKind::Histogram:
            if (auto *slot = shard->histograms.find(def.index)) {
                HistogramData &data =
                    slotAt(retired_.histograms, def.index);
                for (int b = 0; b < histogramBuckets; ++b)
                    data.buckets[static_cast<size_t>(b)] +=
                        slot->buckets[static_cast<size_t>(b)].load(
                            std::memory_order_relaxed);
                data.count += slot->count.load(std::memory_order_relaxed);
                data.sum += slot->sum.load(std::memory_order_relaxed);
            }
            break;
        }
    }
    for (auto it = shards_.begin(); it != shards_.end(); ++it) {
        if (it->get() == shard) {
            shards_.erase(it);
            break;
        }
    }
}

void
StatsRegistry::add(StatId id, uint64_t delta)
{
    if (!enabled() || !id.valid())
        return;
    Shard &shard = localShard();
    std::atomic<uint64_t> *slot = shard.counters.find(id.index);
    if (!slot)
        slot = shard.counters.grow(id.index, shard.growMutex);
    if (slot)
        slot->fetch_add(delta, std::memory_order_relaxed);
}

void
StatsRegistry::set(StatId id, double value)
{
    if (!enabled() || !id.valid())
        return;
    Shard &shard = localShard();
    GaugeSlot *slot = shard.gauges.find(id.index);
    if (!slot)
        slot = shard.gauges.grow(id.index, shard.growMutex);
    if (!slot)
        return;
    const uint64_t stamp =
        gaugeStamp_.fetch_add(1, std::memory_order_relaxed) + 1;
    slot->bits.store(doubleBits(value), std::memory_order_relaxed);
    slot->stamp.store(stamp, std::memory_order_release);
}

void
StatsRegistry::observe(StatId id, uint64_t value)
{
    if (!enabled() || !id.valid())
        return;
    Shard &shard = localShard();
    HistogramSlots *slot = shard.histograms.find(id.index);
    if (!slot)
        slot = shard.histograms.grow(id.index, shard.growMutex);
    if (!slot)
        return;
    const int bucket = histogramBucketOf(value);
    slot->buckets[static_cast<size_t>(bucket)].fetch_add(
        1, std::memory_order_relaxed);
    slot->count.fetch_add(1, std::memory_order_relaxed);
    slot->sum.fetch_add(value, std::memory_order_relaxed);
}

void
StatsRegistry::addNamed(const std::string &path, uint64_t delta)
{
    if (!enabled())
        return;
    add(counter(path), delta);
}

void
StatsRegistry::setNamed(const std::string &path, double value)
{
    if (!enabled())
        return;
    set(gauge(path), value);
}

void
StatsRegistry::observeNamed(const std::string &path, uint64_t value)
{
    if (!enabled())
        return;
    observe(histogram(path), value);
}

StatsRegistry::Snapshot
StatsRegistry::snapshot() const
{
    Snapshot snap;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Def &def : defs_) {
        switch (def.kind) {
          case StatKind::Counter: {
            uint64_t total = def.index < retired_.counters.size()
                                 ? retired_.counters[def.index]
                                 : 0;
            for (const auto &shard : shards_) {
                if (auto *slot = shard->counters.find(def.index))
                    total += slot->load(std::memory_order_relaxed);
            }
            snap.counters.emplace(def.path, total);
            break;
          }
          case StatKind::Gauge: {
            uint64_t best_stamp = 0;
            double value = 0.0;
            if (def.index < retired_.gauges.size()) {
                best_stamp = retired_.gauges[def.index].first;
                value = bitsDouble(retired_.gauges[def.index].second);
            }
            for (const auto &shard : shards_) {
                if (auto *slot = shard->gauges.find(def.index)) {
                    const uint64_t stamp =
                        slot->stamp.load(std::memory_order_acquire);
                    if (stamp > best_stamp) {
                        best_stamp = stamp;
                        value = bitsDouble(slot->bits.load(
                            std::memory_order_relaxed));
                    }
                }
            }
            snap.gauges.emplace(def.path,
                                best_stamp == 0 ? 0.0 : value);
            break;
          }
          case StatKind::Histogram: {
            HistogramData data = def.index < retired_.histograms.size()
                                     ? retired_.histograms[def.index]
                                     : HistogramData{};
            for (const auto &shard : shards_) {
                if (auto *slot = shard->histograms.find(def.index)) {
                    for (int b = 0; b < histogramBuckets; ++b)
                        data.buckets[static_cast<size_t>(b)] +=
                            slot->buckets[static_cast<size_t>(b)].load(
                                std::memory_order_relaxed);
                    data.count +=
                        slot->count.load(std::memory_order_relaxed);
                    data.sum +=
                        slot->sum.load(std::memory_order_relaxed);
                }
            }
            snap.histograms.emplace(def.path, data);
            break;
          }
        }
    }
    return snap;
}

void
StatsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    retired_ = Retired{};
    for (const auto &shard : shards_) {
        for (const Def &def : defs_) {
            switch (def.kind) {
              case StatKind::Counter:
                if (auto *slot = shard->counters.find(def.index))
                    slot->store(0, std::memory_order_relaxed);
                break;
              case StatKind::Gauge:
                if (auto *slot = shard->gauges.find(def.index)) {
                    slot->bits.store(0, std::memory_order_relaxed);
                    slot->stamp.store(0, std::memory_order_relaxed);
                }
                break;
              case StatKind::Histogram:
                if (auto *slot = shard->histograms.find(def.index)) {
                    for (auto &bucket : slot->buckets)
                        bucket.store(0, std::memory_order_relaxed);
                    slot->count.store(0, std::memory_order_relaxed);
                    slot->sum.store(0, std::memory_order_relaxed);
                }
                break;
            }
        }
    }
}

size_t
StatsRegistry::registeredCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return defs_.size();
}

size_t
StatsRegistry::shardCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shards_.size();
}

void
StatsRegistry::writeSnapshotJson(std::ostream &os,
                                 const Snapshot &snapshot)
{
    JsonWriter json(os);
    writeSnapshotJson(json, snapshot);
}

void
StatsRegistry::writeSnapshotJson(JsonWriter &json,
                                 const Snapshot &snapshot)
{
    json.beginObject();
    json.key("counters");
    json.beginObject();
    for (const auto &[path, total] : snapshot.counters)
        json.keyValue(path, total);
    json.endObject();
    json.key("gauges");
    json.beginObject();
    for (const auto &[path, value] : snapshot.gauges)
        json.keyValue(path, value);
    json.endObject();
    json.key("histograms");
    json.beginObject();
    for (const auto &[path, data] : snapshot.histograms) {
        json.key(path);
        json.beginObject();
        json.keyValue("count", data.count);
        json.keyValue("sum", data.sum);
        // Trailing empty buckets are trimmed; bucket b >= 1 covers
        // [2^(b-1), 2^b - 1].
        int last = histogramBuckets - 1;
        while (last > 0 &&
               data.buckets[static_cast<size_t>(last)] == 0)
            --last;
        json.key("buckets");
        json.beginArray();
        for (int b = 0; b <= last; ++b)
            json.value(data.buckets[static_cast<size_t>(b)]);
        json.endArray();
        json.endObject();
    }
    json.endObject();
    json.endObject();
}

} // namespace obs
} // namespace tdp
