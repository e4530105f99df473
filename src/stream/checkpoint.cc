/**
 * @file
 * Checkpoint serialization, rotation and restore for the streaming
 * service. The per-class column encoders live with their classes
 * (session.cc, rls.cc, drift.cc, ingest.cc); this file owns the
 * file format, the StreamService-level sections and the rotation
 * policy.
 */

#include "stream/checkpoint.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <string_view>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "obs/stats_registry.hh"
#include "stream/service.hh"

namespace tdp {
namespace stream {

namespace {

constexpr char kMagic[4] = {'T', 'D', 'P', 'C'};

/** magic, version, fingerprint, generation, tick, digest, count. */
constexpr size_t kHeaderBytes = 4 + 4 + 4 * 8 + 4;

/** A section's id and length, ahead of its payload. */
constexpr size_t kSectionHeadBytes = 4 + 8;

/** A section's framing: id, length and the trailing checksum. */
constexpr size_t kSectionFrameBytes = kSectionHeadBytes + 8;

/** Fixed header preceding the section table. */
struct Header
{
    uint32_t version = 0;
    uint64_t fingerprint = 0;
    uint64_t generation = 0;
    uint64_t tick = 0;
    uint64_t digest = 0;
    uint32_t sectionCount = 0;
};

/**
 * One parsed, checksum-verified checkpoint file held in memory: the
 * file bytes plus where each section's payload lies in them.
 */
struct Parsed
{
    struct Section
    {
        uint32_t id = 0;
        size_t offset = 0;
        size_t length = 0;
    };

    Header header;
    std::string bytes;
    std::vector<Section> sections;
    uint64_t fileChecksum = 0;
    std::string path;

    /** Payload of section @p id, viewed in place; nullopt if absent. */
    std::optional<std::string_view>
    section(uint32_t id) const
    {
        for (const Section &entry : sections) {
            if (entry.id == id)
                return std::string_view(bytes).substr(entry.offset,
                                                      entry.length);
        }
        return std::nullopt;
    }
};

void
saveSample(CheckpointWriter &w, const StreamSample &sample)
{
    w.u64(sample.client);
    w.u64(sample.seq);
    w.f64(sample.time);
    w.f64(sample.interval);
    w.bytes(sample.raw.counts.data(), sizeof sample.raw.counts);
    w.f64(sample.osDiskInterrupts);
    w.f64(sample.osDeviceInterrupts);
    w.bytes(sample.measuredWatts.data(), sizeof sample.measuredWatts);
    w.u32(static_cast<uint32_t>(sample.cpus));
    w.u64(sample.enqueueTick);
}

void
restoreSample(CheckpointReader &r, StreamSample &sample)
{
    sample.client = r.u64();
    sample.seq = r.u64();
    sample.time = r.f64();
    sample.interval = r.f64();
    r.bytes(sample.raw.counts.data(), sizeof sample.raw.counts);
    sample.osDiskInterrupts = r.f64();
    sample.osDeviceInterrupts = r.f64();
    r.bytes(sample.measuredWatts.data(), sizeof sample.measuredWatts);
    sample.cpus = static_cast<int>(r.u32());
    sample.enqueueTick = r.u64();
}

/**
 * Emit the whole checkpoint file through @p w. When @p file is the
 * buffer behind @p w, each section's length is patched in place once
 * its payload is written and its checksum is chained from the one
 * before (the header's, for the first); the return value is the last
 * link, the file checksum. With @p file null the pass only sizes the
 * file and returns 0.
 */
uint64_t
emitCheckpoint(const StreamService &service, uint64_t generation,
               const std::string &meta, CheckpointWriter &w,
               std::string *file)
{
    const size_t shards =
        static_cast<size_t>(service.config().ingest.shards);
    w.bytes(kMagic, sizeof kMagic);
    w.u32(kCheckpointVersion);
    w.u64(service.checkpointFingerprint());
    w.u64(generation);
    w.u64(service.now());
    w.u64(service.digest());
    w.u32(static_cast<uint32_t>(3 + shards));
    uint64_t chain =
        file != nullptr ? checksum64(file->data(), kHeaderBytes) : 0;

    auto section = [&](uint32_t id, auto &&encode) {
        const size_t start = w.size();
        w.u32(id);
        w.u64(0); // length, patched once the payload is written
        encode();
        if (file != nullptr) {
            const uint64_t length = w.size() - start - kSectionHeadBytes;
            std::memcpy(file->data() + start + sizeof id, &length,
                        sizeof length);
            chain = checksum64(file->data() + start, w.size() - start,
                               chain);
        }
        w.u64(chain);
    };

    section(kSecIngest, [&] { service.checkpointSaveIngest(w); });
    // Deterministic shard order: shard s is always section
    // kSecShardBase + s, whatever --jobs produced the state.
    for (size_t s = 0; s < shards; ++s) {
        section(kSecShardBase + static_cast<uint32_t>(s),
                [&] { service.checkpointSaveShard(s, w); });
    }
    section(kSecService, [&] { service.checkpointSaveService(w); });
    section(kSecMeta, [&] { w.bytes(meta.data(), meta.size()); });
    return file != nullptr ? chain : 0;
}

/**
 * Read a whole regular file with one read of its size. False with a
 * one-line reason; never fatals.
 */
bool
readWholeFile(const std::string &path, std::string &bytes,
              std::string &why)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        why = "cannot open";
        return false;
    }
    struct stat st;
    bool ok = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
    if (!ok) {
        why = "not a regular file";
    } else {
        bytes.resize(static_cast<size_t>(st.st_size));
        size_t done = 0;
        while (ok && done < bytes.size()) {
            const ssize_t got =
                ::read(fd, bytes.data() + done, bytes.size() - done);
            if (got < 0 && errno == EINTR)
                continue;
            ok = got > 0;
            done += ok ? static_cast<size_t>(got) : 0;
        }
        if (!ok)
            why = "read failed";
    }
    ::close(fd);
    return ok;
}

/**
 * Read and validate one checkpoint file end to end (magic, version,
 * bounds, the checksum chain). Every length and count is checked
 * against the bytes that remain, overflow-safe, before it is used.
 * Returns false with a one-line reason; never fatals - a torn file
 * is an expected input here.
 */
bool
parseCheckpointFile(const std::string &path, Parsed &out,
                    std::string &why)
{
    std::string &bytes = out.bytes;
    if (!readWholeFile(path, bytes, why))
        return false;

    size_t pos = 0;
    auto remaining = [&] { return bytes.size() - pos; };
    auto take = [&](void *dst, size_t n) {
        std::memcpy(dst, bytes.data() + pos, n);
        pos += n;
    };

    if (remaining() < sizeof kMagic) {
        why = "truncated before magic";
        return false;
    }
    if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
        why = "bad magic (not a TDPC checkpoint)";
        return false;
    }
    pos += sizeof kMagic;

    Header &h = out.header;
    if (remaining() < sizeof h.version) {
        why = "truncated header";
        return false;
    }
    take(&h.version, sizeof h.version);
    if (h.version != kCheckpointVersion) {
        why = "unsupported version " + std::to_string(h.version) +
              ", expected " + std::to_string(kCheckpointVersion);
        return false;
    }
    if (bytes.size() < kHeaderBytes) {
        why = "truncated header";
        return false;
    }
    take(&h.fingerprint, sizeof h.fingerprint);
    take(&h.generation, sizeof h.generation);
    take(&h.tick, sizeof h.tick);
    take(&h.digest, sizeof h.digest);
    take(&h.sectionCount, sizeof h.sectionCount);
    if (h.sectionCount > remaining() / kSectionFrameBytes) {
        why = "section count " + std::to_string(h.sectionCount) +
              " cannot fit the file";
        return false;
    }

    uint64_t chain = checksum64(bytes.data(), kHeaderBytes);
    out.sections.clear();
    out.sections.reserve(h.sectionCount);
    for (uint32_t s = 0; s < h.sectionCount; ++s) {
        const size_t start = pos;
        uint32_t id;
        uint64_t length;
        if (remaining() < kSectionHeadBytes) {
            why = "truncated section header";
            return false;
        }
        take(&id, sizeof id);
        take(&length, sizeof length);
        // The trailing checksum must fit after the payload too:
        // compare against what remains, never add to length.
        if (remaining() < sizeof(uint64_t) ||
            length > remaining() - sizeof(uint64_t)) {
            why = "truncated section " + std::to_string(id);
            return false;
        }
        const size_t offset = pos;
        pos += static_cast<size_t>(length);
        uint64_t stored;
        take(&stored, sizeof stored);
        if (checksum64(bytes.data() + start, offset + length - start,
                       chain) != stored) {
            why = "checksum mismatch in section " + std::to_string(id);
            return false;
        }
        chain = stored;
        out.sections.push_back({id, offset, static_cast<size_t>(length)});
    }
    if (pos != bytes.size()) {
        why = "trailing bytes after last section";
        return false;
    }

    out.fileChecksum = chain;
    out.path = path;
    return true;
}

/**
 * Serialise generation @p generation of @p service into @p file,
 * reusing its capacity: a counting pass sizes it, then one pass
 * fills it. Returns the file checksum.
 */
uint64_t
encodeStreamCheckpoint(const StreamService &service,
                       uint64_t generation, const std::string &meta,
                       std::string &file)
{
    CheckpointWriter sizer;
    emitCheckpoint(service, generation, meta, sizer, nullptr);
    file.clear();
    file.reserve(sizer.size());
    CheckpointWriter w(&file);
    return emitCheckpoint(service, generation, meta, w, &file);
}

/** Atomically publish the encoded @p file at @p path. */
bool
publishCheckpointFile(const std::string &path, const std::string &file,
                      std::string *error)
{
    return writeFileAtomic(
        path,
        [&file](std::ostream &os) {
            os.write(file.data(),
                     static_cast<std::streamsize>(file.size()));
            return os.good();
        },
        error);
}

/** True when @p path exists (any kind of entry). */
bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

} // namespace

std::string
checkpointGenerationPath(const std::string &base, uint64_t generation)
{
    return base + (generation % 2 == 0 ? ".gen0" : ".gen1");
}

bool
writeStreamCheckpoint(const StreamService &service,
                      const std::string &base, uint64_t generation,
                      const std::string &meta, CheckpointInfo *info,
                      std::string *error)
{
    std::string file;
    const uint64_t checksum =
        encodeStreamCheckpoint(service, generation, meta, file);
    const std::string path = checkpointGenerationPath(base, generation);
    const bool ok = publishCheckpointFile(path, file, error);
    if (ok && info != nullptr) {
        info->generation = generation;
        info->tick = service.now();
        info->digest = service.digest();
        info->crc = checksum;
        info->path = path;
    }
    return ok;
}

RestoreResult
restoreStreamCheckpoint(StreamService &service, const std::string &base)
{
    RestoreResult res;
    if (service.now() != 0 || service.activeSessions() != 0) {
        res.error = "restore requires a freshly constructed service";
        return res;
    }

    // Validate both rotation slots fully in memory, then take the
    // newest usable generation. A slot that exists but fails any
    // check (torn write, CRC, foreign fingerprint) is a fallback
    // event, not a fatal.
    const uint64_t fingerprint = service.checkpointFingerprint();
    std::vector<Parsed> valid;
    std::string reasons;
    bool sawUnusable = false;
    for (int slot = 0; slot < 2; ++slot) {
        const std::string path =
            checkpointGenerationPath(base, static_cast<uint64_t>(slot));
        if (!fileExists(path))
            continue;
        Parsed parsed;
        std::string why;
        if (!parseCheckpointFile(path, parsed, why)) {
            sawUnusable = true;
            reasons += (reasons.empty() ? "" : "; ") + path + ": " + why;
            continue;
        }
        if (parsed.header.fingerprint != fingerprint) {
            sawUnusable = true;
            reasons += (reasons.empty() ? "" : "; ") + path +
                       ": config fingerprint mismatch";
            continue;
        }
        valid.push_back(std::move(parsed));
    }
    if (valid.empty()) {
        res.error = "no usable checkpoint at " + base +
                    (reasons.empty() ? " (no generation files)"
                                     : " (" + reasons + ")");
        return res;
    }
    size_t best = 0;
    for (size_t v = 1; v < valid.size(); ++v) {
        if (valid[v].header.generation >
            valid[best].header.generation)
            best = v;
    }
    const Parsed &chosen = valid[best];
    res.usedFallback = sawUnusable;
    if (sawUnusable) {
        res.warning = "falling back to generation " +
                      std::to_string(chosen.header.generation) + " (" +
                      reasons + ")";
        warn("stream checkpoint: %s", res.warning.c_str());
    }

    const size_t shards =
        static_cast<size_t>(service.config().ingest.shards);
    auto restoreSection = [&](uint32_t id, const char *what,
                              auto &&fn) -> bool {
        const std::optional<std::string_view> payload = chosen.section(id);
        if (!payload) {
            res.error = std::string("missing section: ") + what;
            return false;
        }
        CheckpointReader r(payload->data(), payload->size());
        if (!fn(r) || !r.ok()) {
            res.error = std::string(what) + ": " +
                        (r.ok() ? "restore failed" : r.error());
            return false;
        }
        if (r.remaining() != 0) {
            res.error = std::string(what) + ": trailing bytes";
            return false;
        }
        return true;
    };

    if (!restoreSection(kSecIngest, "ingest", [&](CheckpointReader &r) {
            return service.checkpointRestoreIngest(r);
        }))
        return res;
    for (size_t s = 0; s < shards; ++s) {
        const std::string what = "shard " + std::to_string(s);
        if (!restoreSection(
                kSecShardBase + static_cast<uint32_t>(s), what.c_str(),
                [&](CheckpointReader &r) {
                    return service.checkpointRestoreShard(s, r);
                }))
            return res;
    }
    if (!restoreSection(kSecService, "service",
                        [&](CheckpointReader &r) {
                            return service.checkpointRestoreService(r);
                        }))
        return res;

    if (service.digest() != chosen.header.digest ||
        service.now() != chosen.header.tick) {
        res.error = "restored state does not match checkpoint header "
                    "(digest/tick)";
        return res;
    }
    if (const auto meta = chosen.section(kSecMeta))
        res.meta = *meta;

    service.checkpointRestoreFinish(chosen.header.generation,
                                    res.usedFallback);
    res.info.generation = chosen.header.generation;
    res.info.tick = chosen.header.tick;
    res.info.digest = chosen.header.digest;
    res.info.crc = chosen.fileChecksum;
    res.info.path = chosen.path;
    res.ok = true;
    return res;
}

bool
peekStreamCheckpointMeta(const std::string &base, std::string *meta,
                         std::string *error)
{
    Parsed slots[2];
    bool usable[2] = {false, false};
    std::string reasons;
    for (int slot = 0; slot < 2; ++slot) {
        const std::string path =
            checkpointGenerationPath(base, static_cast<uint64_t>(slot));
        if (!fileExists(path))
            continue;
        std::string why;
        usable[slot] = parseCheckpointFile(path, slots[slot], why);
        if (!usable[slot])
            reasons += (reasons.empty() ? "" : "; ") + path + ": " + why;
    }
    const Parsed *best = nullptr;
    for (int slot = 0; slot < 2; ++slot) {
        if (usable[slot] &&
            (best == nullptr ||
             slots[slot].header.generation > best->header.generation))
            best = &slots[slot];
    }
    if (best == nullptr) {
        if (error != nullptr)
            *error = "no usable checkpoint at " + base +
                     (reasons.empty() ? " (no generation files)"
                                      : " (" + reasons + ")");
        return false;
    }
    if (meta != nullptr)
        *meta = best->section(kSecMeta).value_or(std::string_view());
    return true;
}

StreamCheckpointer::StreamCheckpointer(StreamService &service,
                                       std::string base,
                                       uint64_t everyTicks,
                                       uint64_t startGeneration)
    : service_(service), base_(std::move(base)), every_(everyTicks),
      generation_(startGeneration)
{
    if (every_ == 0)
        fatal("StreamCheckpointer: everyTicks must be >= 1");
    if (base_.empty())
        fatal("StreamCheckpointer: base path must not be empty");
    for (uint64_t slot = 0; slot < 2; ++slot) {
        slotPaths_[slot] = checkpointGenerationPath(base_, slot);
        // Fresh rotation: stale generations from a previous run with
        // the same base must not shadow this run's checkpoints.
        if (startGeneration == 0)
            std::remove(slotPaths_[slot].c_str());
    }
    writer_ = std::thread([this] { writerLoop(); });
}

StreamCheckpointer::~StreamCheckpointer()
{
    reap();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_one();
    writer_.join();
}

void
StreamCheckpointer::onTick()
{
    const uint64_t now = service_.now();
    if (now == 0 || now % every_ != 0)
        return;
    reap();
    handOff();
}

bool
StreamCheckpointer::writeNow()
{
    reap();
    handOff();
    return reap();
}

void
StreamCheckpointer::handOff()
{
    // Everything deterministic happens here, on the tick: the bytes,
    // the identity and the attempt count.
    pending_.generation = generation_ + 1;
    pending_.tick = service_.now();
    pending_.digest = service_.digest();
    pending_.crc = encodeStreamCheckpoint(service_, pending_.generation,
                                          meta_, file_);
    pending_.path = slotPaths_[pending_.generation % 2];
    service_.noteCheckpointAttempt();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queued_ = true;
    }
    wake_.notify_one();
    inFlight_ = true;
}

bool
StreamCheckpointer::reap()
{
    if (!inFlight_)
        return true;
    bool ok = false;
    std::string error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!finished_) {
            ++waits_;
            done_.wait(lock, [this] { return finished_; });
        }
        finished_ = false;
        ok = ok_;
        error.swap(error_);
    }
    inFlight_ = false;
    if (!ok) {
        ++failures_;
        service_.noteCheckpointFailure(pending_.generation);
        warn("stream checkpoint: generation %llu failed: %s",
             static_cast<unsigned long long>(pending_.generation),
             error.c_str());
        return false;
    }
    generation_ = pending_.generation;
    ++written_;
    last_ = pending_;
    service_.noteCheckpoint(pending_.generation, pending_.crc);
    return true;
}

void
StreamCheckpointer::writerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [this] { return queued_ || stop_; });
        if (!queued_)
            return;
        queued_ = false;
        lock.unlock();
        std::string error;
        bool ok = false;
        try {
            ok = publishCheckpointFile(pending_.path, file_, &error);
        } catch (const std::exception &e) {
            // Reported at the reap like any failed publish; an
            // exception must not end the writer thread (and with it
            // the process).
            error = e.what();
        }
        lock.lock();
        ok_ = ok;
        error_.swap(error);
        finished_ = true;
        done_.notify_one();
    }
}

void
CheckpointReader::bytes(void *out, size_t n)
{
    if (n == 0)
        return;
    if (!ok_ || size_ - pos_ < n) {
        fail("short read");
        std::memset(out, 0, n);
        return;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
}

// ---------------------------------------------------------------------
// StreamService checkpoint sections. These are members (declared in
// service.hh) so the format stays in one translation unit without
// widening the service's public state surface.

uint64_t
StreamService::computeCheckpointFingerprint() const
{
    uint64_t h = fnv1aBasis;
    auto fold = [&h](uint64_t v) { h = fnv1a64(&v, sizeof v, h); };
    auto foldDouble = [&fold](double v) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        fold(bits);
    };

    fold(0x7d9c0001ull); // fingerprint format tag
    fold(static_cast<uint64_t>(kCheckpointVersion));
    fold(static_cast<uint64_t>(cfg_.ingest.shards));
    fold(cfg_.ingest.ringCapacity);
    fold(cfg_.ingest.highWatermark);
    fold(cfg_.ingest.seed);
    fold(static_cast<uint64_t>(cfg_.session.counterWidthBits));
    fold(cfg_.session.idleTimeoutTicks);
    fold(cfg_.session.quarantineThreshold);
    fold(cfg_.session.wattsWindow);
    fold(cfg_.drift.window);
    foldDouble(cfg_.drift.factor);
    foldDouble(cfg_.drift.floorWatts);
    fold(cfg_.drift.healthyWindows);
    fold(cfg_.refitBlockRows);
    fold(cfg_.refitWindowBlocks);
    fold(cfg_.drainBudget);
    fold(cfg_.evictEveryTicks);
    fold(cfg_.verifyRefits ? 1 : 0);

    // The fallback rungs never refit at runtime, so their trained
    // coefficients identify the training run: a checkpoint written
    // against a differently trained estimator must not restore.
    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        fold(est_.model(rail).coefficients().size());
        for (const auto &rung : est_.fallbacks(rail)) {
            fold(rung->trained() ? 1 : 0);
            if (!rung->trained())
                continue;
            const std::vector<double> coefs = rung->coefficients();
            fold(coefs.size());
            for (const double c : coefs)
                foldDouble(c);
        }
    }
    return h;
}

void
StreamService::checkpointSaveIngest(CheckpointWriter &w) const
{
    ingest_.checkpointSave(w);
}

bool
StreamService::checkpointRestoreIngest(CheckpointReader &r)
{
    return ingest_.checkpointRestore(r);
}

void
StreamService::checkpointSaveShard(size_t shard,
                                   CheckpointWriter &w) const
{
    sessions_[shard].checkpointSave(w);
    const SampleRing &ring = ingest_.shard(static_cast<int>(shard));
    w.u64(ring.size());
    for (size_t i = 0; i < ring.size(); ++i)
        saveSample(w, ring.at(i));
}

bool
StreamService::checkpointRestoreShard(size_t shard,
                                      CheckpointReader &r)
{
    if (!sessions_[shard].checkpointRestore(r))
        return false;
    SampleRing &ring = ingest_.shard(static_cast<int>(shard));
    ring.clear();
    const uint64_t queued = r.u64();
    if (queued > ring.capacity()) {
        r.fail("ring occupancy exceeds capacity");
        return false;
    }
    StreamSample sample;
    for (uint64_t i = 0; i < queued; ++i) {
        restoreSample(r, sample);
        if (!r.ok())
            return false;
        ring.push(sample);
    }
    return r.ok();
}

void
StreamService::checkpointSaveService(CheckpointWriter &w) const
{
    w.u64(now_);
    w.u64(digest_);
    w.u64(stats_.ticks);
    w.u64(stats_.drained);
    w.u64(stats_.estimates);
    w.u64(stats_.quarantinedAtDoor);
    w.u64(stats_.evictionSweeps);
    w.u64(stats_.checkpoints);
    w.u64(stats_.checkpointFailures);
    w.u64(stats_.restores);
    w.u64(stats_.restoreFallbacks);
    for (int b = 0; b < obs::histogramBuckets; ++b)
        w.u64(latency_[static_cast<size_t>(b)]);
    w.u64(latencyCount_);
    w.u64(latencyMax_);

    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        const RailState &state = rails_[static_cast<size_t>(r)];
        w.u64(state.refits);
        w.u64(state.fullQrRefits);
        w.u64(state.verifiedRefits);
        w.u64(state.degradedPublishes);
        w.u64(state.unestimable);
        w.u64(state.blocksAtLastRefit);
        w.f64(state.lastRefitRmse);
        w.u8(state.publishingFallback ? 1 : 0);
        state.drift->checkpointSave(w);
        state.rls->checkpointSave(w);
        // The primary model refits at runtime; its live coefficients
        // are state. (The chipset's intercept-only fit included.)
        const std::vector<double> coefs =
            est_.model(rail).coefficients();
        w.u32(static_cast<uint32_t>(coefs.size()));
        for (const double c : coefs)
            w.f64(c);
    }
}

bool
StreamService::checkpointRestoreService(CheckpointReader &r)
{
    now_ = r.u64();
    digest_ = r.u64();
    stats_.ticks = r.u64();
    stats_.drained = r.u64();
    stats_.estimates = r.u64();
    stats_.quarantinedAtDoor = r.u64();
    stats_.evictionSweeps = r.u64();
    stats_.checkpoints = r.u64();
    stats_.checkpointFailures = r.u64();
    stats_.restores = r.u64();
    stats_.restoreFallbacks = r.u64();
    for (int b = 0; b < obs::histogramBuckets; ++b)
        latency_[static_cast<size_t>(b)] = r.u64();
    latencyCount_ = r.u64();
    latencyMax_ = r.u64();

    std::vector<double> coefs;
    for (int rail = 0; rail < numRails; ++rail) {
        RailState &state = rails_[static_cast<size_t>(rail)];
        state.refits = r.u64();
        state.fullQrRefits = r.u64();
        state.verifiedRefits = r.u64();
        state.degradedPublishes = r.u64();
        state.unestimable = r.u64();
        state.blocksAtLastRefit = r.u64();
        state.lastRefitRmse = r.f64();
        state.publishingFallback = r.u8() != 0;
        if (!state.drift->checkpointRestore(r))
            return false;
        if (!state.rls->checkpointRestore(r))
            return false;
        const uint32_t count = r.u32();
        SubsystemModel &model =
            est_.model(static_cast<Rail>(rail));
        if (count != model.coefficients().size()) {
            r.fail("primary coefficient count mismatch");
            return false;
        }
        coefs.resize(count);
        for (uint32_t c = 0; c < count; ++c)
            coefs[static_cast<size_t>(c)] = r.f64();
        if (!r.ok())
            return false;
        model.setCoefficients(coefs);
    }
    return r.ok();
}

void
StreamService::checkpointRestoreFinish(uint64_t generation,
                                       bool usedFallback)
{
    ++stats_.restores;
    if (usedFallback)
        ++stats_.restoreFallbacks;
    // Prime the timeline delta base with the restored cumulative
    // counters: the first window sealed after restore must report
    // the activity of that window, not of the whole previous life.
    telemetry_.primeDeltaBase(cumulativeTimelineCounters());
    telemetry_.flight(telemetry_.serviceRing(), FlightKind::Restore,
                      now_, generation, usedFallback ? 1 : 0);
}

void
StreamService::noteCheckpointAttempt()
{
    ++checkpointsInFlight_;
}

void
StreamService::noteCheckpoint(uint64_t generation, uint64_t crc)
{
    --checkpointsInFlight_;
    ++stats_.checkpoints;
    telemetry_.flight(telemetry_.serviceRing(), FlightKind::Checkpoint,
                      now_, generation, crc);
}

void
StreamService::noteCheckpointFailure(uint64_t generation)
{
    --checkpointsInFlight_;
    ++stats_.checkpointFailures;
    telemetry_.flight(telemetry_.serviceRing(),
                      FlightKind::CheckpointFailed, now_, generation);
}

} // namespace stream
} // namespace tdp
