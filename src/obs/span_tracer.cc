/**
 * @file
 * Implementation of the span tracer.
 */

#include "obs/span_tracer.hh"

#include <algorithm>
#include <cstring>
#include <initializer_list>

#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "obs/json_writer.hh"

namespace tdp {
namespace obs {

namespace {

std::atomic<uint64_t> nextTracerEpoch{1};

/** Copy a view into a fixed char field, truncating with NUL. */
template <size_t N>
void
copyField(char (&dst)[N], std::string_view src)
{
    const size_t n = std::min(src.size(), N - 1);
    std::memcpy(dst, src.data(), n);
    dst[n] = '\0';
}

} // namespace

thread_local SpanTracer::RingCache SpanTracer::ringCache_;

SpanTracer::RingCache::~RingCache()
{
    // The ring keeps its unflushed spans; the next thread appends.
    for (const CachedRing &entry : entries) {
        if (const auto idle = entry.idle.lock()) {
            std::lock_guard<std::mutex> lock(idle->mutex);
            idle->rings.push_back(entry.ring);
        }
    }
}

SpanTracer &
SpanTracer::global()
{
    // Leaked on purpose, like StatsRegistry::global(): spans may be
    // recorded from atexit-adjacent code paths.
    static SpanTracer *tracer = new SpanTracer();
    return *tracer;
}

void
SpanTracer::setOutput(std::string path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    path_ = std::move(path);
    if (path_.empty()) {
        for (const auto &ring : rings_) {
            std::lock_guard<std::mutex> ring_lock(ring->mutex);
            ring->head = 0;
            ring->count = 0;
        }
        enabled_.store(false, std::memory_order_relaxed);
        return;
    }
    enabled_.store(true, std::memory_order_relaxed);
}

std::string
SpanTracer::outputPath() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return path_;
}

void
SpanTracer::setRingCapacity(size_t capacity)
{
    if (capacity < 2)
        fatal("SpanTracer: ring capacity must be >= 2, got %zu",
              capacity);
    std::lock_guard<std::mutex> lock(mutex_);
    ringCapacity_ = capacity;
}

SpanTracer::Ring &
SpanTracer::localRing()
{
    uint64_t epoch = tracerEpoch_.load(std::memory_order_acquire);
    if (epoch == 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        epoch = tracerEpoch_.load(std::memory_order_relaxed);
        if (epoch == 0) {
            epoch = nextTracerEpoch.fetch_add(
                1, std::memory_order_relaxed);
            tracerEpoch_.store(epoch, std::memory_order_release);
        }
    }

    for (const CachedRing &entry : ringCache_.entries)
        if (entry.epoch == epoch)
            return *entry.ring;

    Ring *raw = nullptr;
    {
        std::lock_guard<std::mutex> idle_lock(idle_->mutex);
        if (!idle_->rings.empty()) {
            raw = idle_->rings.back();
            idle_->rings.pop_back();
        }
    }
    if (!raw) {
        std::lock_guard<std::mutex> lock(mutex_);
        auto ring = std::make_unique<Ring>(ringCapacity_);
        raw = ring.get();
        rings_.push_back(std::move(ring));
    }
    ringCache_.entries.push_back(CachedRing{epoch, raw, idle_});
    return *raw;
}

double
SpanTracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

void
SpanTracer::record(std::string_view category, std::string_view name,
                   double start_us, double dur_us, SpanArg arg,
                   SpanArg arg2)
{
    if (!enabled())
        return;
    Ring &ring = localRing();
    std::lock_guard<std::mutex> lock(ring.mutex);

    // Assign the ring's display tid lazily from its slot order.
    SpanEvent &slot = ring.entries[ring.head];
    slot.startUs = start_us;
    slot.durUs = dur_us;
    slot.tid = 0; // filled at flush time from the ring's index
    copyField(slot.category, category);
    copyField(slot.name, name);
    slot.argCount = 0;
    for (const SpanArg &a : {arg, arg2}) {
        if (a.name.empty())
            continue;
        copyField(slot.argName[slot.argCount], a.name);
        slot.argValue[slot.argCount] = a.value;
        ++slot.argCount;
    }

    ring.head = (ring.head + 1) % ring.entries.size();
    if (ring.count < ring.entries.size())
        ++ring.count;
    else
        ++ring.dropped;
    ++ring.recorded;
}

SpanTracer::Stats
SpanTracer::stats() const
{
    Stats totals;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &ring : rings_) {
        std::lock_guard<std::mutex> ring_lock(ring->mutex);
        totals.buffered += ring->count;
        totals.dropped += ring->dropped;
        totals.recorded += ring->recorded;
    }
    totals.rings = rings_.size();
    return totals;
}

bool
SpanTracer::flush()
{
    std::string path;
    struct Tagged
    {
        SpanEvent event;
        uint32_t tid;
    };
    std::vector<Tagged> events;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (path_.empty())
            return true;
        path = path_;
        uint32_t tid = 0;
        for (const auto &ring : rings_) {
            ++tid;
            std::lock_guard<std::mutex> ring_lock(ring->mutex);
            const size_t cap = ring->entries.size();
            // Oldest-first: with a full ring, head is the oldest.
            const size_t first =
                ring->count == cap ? ring->head : 0;
            for (size_t i = 0; i < ring->count; ++i) {
                Tagged t;
                t.event = ring->entries[(first + i) % cap];
                t.tid = tid;
                events.push_back(t);
            }
            ring->head = 0;
            ring->count = 0;
        }
    }

    std::stable_sort(events.begin(), events.end(),
                     [](const Tagged &a, const Tagged &b) {
                         return a.event.startUs < b.event.startUs;
                     });

    std::string error;
    const bool ok = writeFileAtomic(
        path,
        [&events](std::ostream &os) {
            JsonWriter json(os);
            json.beginObject();
            json.keyValue("displayTimeUnit", "ms");
            json.key("traceEvents");
            json.beginArray();
            for (const Tagged &t : events) {
                json.beginObject();
                json.keyValue("name", std::string_view(t.event.name));
                json.keyValue("cat",
                              std::string_view(t.event.category));
                json.keyValue("ph", "X");
                json.keyValue("ts", t.event.startUs);
                json.keyValue("dur", t.event.durUs);
                json.keyValue("pid", uint64_t(1));
                json.keyValue("tid", uint64_t(t.tid));
                if (t.event.argCount > 0) {
                    json.key("args");
                    json.beginObject();
                    for (int a = 0; a < t.event.argCount; ++a) {
                        json.keyValue(
                            std::string_view(t.event.argName[a]),
                            t.event.argValue[a]);
                    }
                    json.endObject();
                }
                json.endObject();
            }
            json.endArray();
            json.endObject();
            os << '\n';
            return static_cast<bool>(os);
        },
        &error);
    if (!ok) {
        warn("span tracer: %s; trace not flushed", error.c_str());
        return false;
    }
    return true;
}

} // namespace obs
} // namespace tdp
