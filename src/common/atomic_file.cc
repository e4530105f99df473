/**
 * @file
 * Implementation of hardened atomic file publication.
 */

#include "common/atomic_file.hh"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <system_error>

#include "common/logging.hh"

namespace tdp {

namespace fs = std::filesystem;

namespace {

/**
 * The installed hook, guarded by a mutex for install/copy; the
 * fast-path check is a relaxed atomic so the no-hook case costs one
 * load.
 */
std::atomic<bool> hookInstalled{false};
std::mutex hookMutex;
IoFaultHook hook;

IoFault
consultHook(const std::string &path)
{
    if (!hookInstalled.load(std::memory_order_relaxed))
        return IoFault::None;
    IoFaultHook local;
    {
        std::lock_guard<std::mutex> lock(hookMutex);
        local = hook;
    }
    return local ? local(path) : IoFault::None;
}

bool
failWith(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
    return false;
}

/** fsync one file by path; returns false with errno text on failure. */
bool
syncFile(const std::string &path, std::string *error)
{
    const int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0)
        return failWith(error,
                        formatString("cannot reopen %s for fsync: %s",
                                     path.c_str(),
                                     std::strerror(errno)));
    const int rc = ::fsync(fd);
    const int saved = errno;
    ::close(fd);
    if (rc != 0)
        return failWith(error, formatString("fsync %s: %s",
                                            path.c_str(),
                                            std::strerror(saved)));
    return true;
}

/**
 * Per-thread path buffers of writeFileAtomic. Their capacity is
 * reused, so a thread that publishes again and again (a checkpoint
 * writer) stops allocating after its first publish. A writer
 * callback must therefore not call writeFileAtomic itself.
 */
struct PathScratch
{
    std::string tmp;
    std::string dir;
};

thread_local PathScratch scratch;

/**
 * fsync the directory containing `path` so the rename itself is
 * durable. Best effort: some filesystems refuse directory opens;
 * those failures are reported but the publish already happened.
 */
bool
syncParentDir(const std::string &path, std::string *error)
{
    std::string &dir = scratch.dir;
    const size_t slash = path.rfind('/');
    if (slash == std::string::npos)
        dir = ".";
    else if (slash == 0)
        dir = "/";
    else
        dir.assign(path, 0, slash);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return failWith(error,
                        formatString("cannot open directory %s for "
                                     "fsync: %s",
                                     dir.c_str(), std::strerror(errno)));
    const int rc = ::fsync(fd);
    const int saved = errno;
    ::close(fd);
    if (rc != 0)
        return failWith(error, formatString("fsync directory %s: %s",
                                            dir.c_str(),
                                            std::strerror(saved)));
    return true;
}

/**
 * Unique temp name for one destination, process-scoped, built into
 * @p out: `<dir>/<name>.<stage>.<pid>.<n>`, where dir is @p tmpDir
 * or else the destination's own directory.
 */
void
tempPathFor(const std::string &path, const std::string &tmpDir,
            const char *stage, std::string &out)
{
    static std::atomic<uint64_t> counter{0};
    const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
    const size_t slash = path.rfind('/');
    const size_t nameAt = slash == std::string::npos ? 0 : slash + 1;
    char suffix[64];
    const int len = std::snprintf(suffix, sizeof suffix, ".%s.%ld.%llu",
                                  stage, static_cast<long>(::getpid()),
                                  static_cast<unsigned long long>(n));
    // Room for the longest suffix, so a counter gaining digits never
    // reallocates.
    out.clear();
    out.reserve(tmpDir.size() + 1 + path.size() + sizeof suffix);
    if (!tmpDir.empty()) {
        out += tmpDir;
        if (out.back() != '/')
            out += '/';
    } else {
        out.append(path, 0, nameAt);
    }
    out.append(path, nameAt, std::string::npos);
    out.append(suffix, static_cast<size_t>(len));
}

} // namespace

void
setIoFaultHook(IoFaultHook new_hook)
{
    std::lock_guard<std::mutex> lock(hookMutex);
    hook = std::move(new_hook);
    hookInstalled.store(static_cast<bool>(hook),
                        std::memory_order_relaxed);
}

bool
ioFaultHookInstalled()
{
    return hookInstalled.load(std::memory_order_relaxed);
}

bool
writeFileAtomic(const std::string &path,
                const std::function<bool(std::ostream &)> &writer,
                std::string *error, const AtomicWriteOptions &options)
{
    const IoFault fault = consultHook(path);

    std::string &tmp = scratch.tmp;
    tempPathFor(path, options.tmpDir, "tmp", tmp);
    {
        // A stream buffer of our own: opening with the default one
        // would allocate it on every publish.
        char buffer[BUFSIZ];
        std::ofstream os;
        os.rdbuf()->pubsetbuf(buffer, sizeof buffer);
        os.open(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return failWith(error, formatString("cannot write %s",
                                                tmp.c_str()));
        const bool writer_ok = writer(os);
        if (fault == IoFault::Enospc) {
            // Injected disk-full: abandon the payload exactly as a
            // failed ofstream write would.
            os.setstate(std::ios::badbit);
        }
        if (!writer_ok || !os) {
            os.close();
            std::error_code ec;
            fs::remove(tmp, ec);
            return failWith(
                error,
                fault == IoFault::Enospc
                    ? formatString("write to %s failed: no space left "
                                   "on device (injected)",
                                   tmp.c_str())
                    : formatString("write to %s failed", tmp.c_str()));
        }
    }

    if (fault == IoFault::TornWrite) {
        // Injected torn payload: drop the tail half, then publish
        // anyway. Readers must reject the entry by checksum.
        std::error_code ec;
        const auto size = fs::file_size(tmp, ec);
        if (!ec)
            fs::resize_file(tmp, size / 2, ec);
    }

    if (options.sync && !syncFile(tmp, error)) {
        std::error_code ec;
        fs::remove(tmp, ec);
        return false;
    }

    std::error_code ec;
    bool crossed = fault == IoFault::Exdev;
    if (!crossed && ::rename(tmp.c_str(), path.c_str()) != 0) {
        const int saved = errno;
        crossed = saved == EXDEV;
        if (!crossed) {
            fs::remove(tmp, ec);
            return failWith(error,
                            formatString("cannot publish %s (%s)",
                                         path.c_str(),
                                         std::strerror(saved)));
        }
    }
    if (crossed) {
        // Temp landed on another filesystem (or injected EXDEV):
        // copy next to the destination and rename that instead.
        std::string near;
        tempPathFor(path, "", "xdev", near);
        fs::copy_file(tmp, near, fs::copy_options::overwrite_existing,
                      ec);
        if (ec) {
            const std::string msg = ec.message();
            fs::remove(tmp, ec);
            return failWith(
                error, formatString("cross-device copy to %s failed "
                                    "(%s)",
                                    near.c_str(), msg.c_str()));
        }
        if (options.sync && !syncFile(near, error)) {
            fs::remove(tmp, ec);
            fs::remove(near, ec);
            return false;
        }
        fs::rename(near, path, ec);
        if (ec) {
            const std::string msg = ec.message();
            fs::remove(near, ec);
            fs::remove(tmp, ec);
            return failWith(error,
                            formatString("cannot publish %s (%s)",
                                         path.c_str(), msg.c_str()));
        }
        fs::remove(tmp, ec);
    }

    if (options.sync && !syncParentDir(path, error))
        return false;
    return true;
}

} // namespace tdp
