/**
 * @file
 * Hardened atomic file publication.
 *
 * Every on-disk artefact this library publishes (trace-cache
 * entries, span traces, run manifests, stream checkpoints) must obey
 * the same contract: a reader either sees the complete previous
 * version or the complete new version, never a torn intermediate,
 * even across a crash or power loss. Plain tmp+rename gives
 * atomicity against concurrent readers but not against crashes: the
 * rename can be durable while the data blocks are not, publishing a
 * file full of zeros. writeFileAtomic() closes that hole:
 *
 *   1. write the payload to a unique temp file,
 *   2. fsync the temp file (data durable before the name exists),
 *   3. rename over the destination,
 *   4. fsync the destination directory (the name itself durable).
 *
 * When the temp file lands on a different filesystem than the
 * destination (an explicit temp directory, e.g. a fast local scratch
 * disk), rename fails with EXDEV; the helper then falls back to
 * copying the payload into a second temp file *next to* the
 * destination and renaming that, preserving the atomicity contract.
 *
 * A process-global fault hook lets tests and the stream sweep's
 * checkpoint phases inject the failure modes this hardening exists
 * for - ENOSPC mid-write, a torn (truncated) payload surviving to the
 * rename, a forced EXDEV - without any syscall interposition. The
 * hook must be installed before concurrent publishers start and must
 * itself be thread-safe; with no hook installed the only cost is one
 * relaxed pointer load.
 */

#ifndef TDP_COMMON_ATOMIC_FILE_HH
#define TDP_COMMON_ATOMIC_FILE_HH

#include <functional>
#include <ostream>
#include <string>

namespace tdp {

/** Failure modes the fault hook can inject into one publish. */
enum class IoFault
{
    /** Publish normally. */
    None,

    /** Fail the payload write as if the disk filled (ENOSPC). */
    Enospc,

    /**
     * Truncate the payload before publishing: the rename succeeds
     * but the destination holds a torn entry. Readers must detect
     * this via their own checksums (and they do).
     */
    TornWrite,

    /**
     * Pretend the first rename failed with EXDEV, forcing the
     * cross-filesystem copy fallback.
     */
    Exdev,
};

/**
 * Fault seam: decides the fate of one publish, keyed by the
 * destination path. Must be thread-safe; installed process-wide.
 */
using IoFaultHook = std::function<IoFault(const std::string &path)>;

/**
 * Install (or clear, with nullptr behaviour via default-constructed
 * function) the global publish fault hook. Call before concurrent
 * publishers start.
 */
void setIoFaultHook(IoFaultHook hook);

/** True when a fault hook is installed (fault-injection runs only). */
bool ioFaultHookInstalled();

/** Options for writeFileAtomic. */
struct AtomicWriteOptions
{
    /**
     * Directory for the initial temp file; empty means "next to the
     * destination" (same filesystem, no EXDEV possible).
     */
    std::string tmpDir;

    /**
     * Durability: fsync the temp payload before rename and the
     * destination directory after. Disable only for artefacts whose
     * loss on power-cut is acceptable (none of ours today).
     */
    bool sync = true;
};

/**
 * Atomically publish `path` with the bytes `writer` streams. The
 * writer returns false (or leaves the stream in a failed state) to
 * abort. Returns false on any failure with a one-line reason in
 * *error (when given); the destination is never left torn and the
 * temp file is cleaned up.
 */
bool writeFileAtomic(const std::string &path,
                     const std::function<bool(std::ostream &)> &writer,
                     std::string *error = nullptr,
                     const AtomicWriteOptions &options = {});

} // namespace tdp

#endif // TDP_COMMON_ATOMIC_FILE_HH
