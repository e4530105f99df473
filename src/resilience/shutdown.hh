/**
 * @file
 * Graceful-shutdown coordination.
 *
 * A long stream sweep receiving SIGINT/SIGTERM (preemption, a CI
 * timeout, an operator Ctrl-C) should not vanish mid-write: the
 * handler only sets a flag; the driver polls it at a tick boundary,
 * flushes its partial manifest, timeline and final checkpoint, and
 * exits with a distinct code (cleanAbortExitCode) so callers can
 * tell "aborted cleanly" from both success and crash.
 */

#ifndef TDP_RESILIENCE_SHUTDOWN_HH
#define TDP_RESILIENCE_SHUTDOWN_HH

namespace tdp {
namespace resilience {

/**
 * Exit code of a drained, flushed abort. Distinct from 0
 * (success), 1 (fatal error) and 128+signum (unhandled signal).
 */
constexpr int cleanAbortExitCode = 113;

/**
 * Install the SIGINT/SIGTERM handler (idempotent). The handler is
 * async-signal-safe: it only raises the shutdown flag.
 */
void installShutdownHandler();

/** True once SIGINT or SIGTERM was received. */
bool shutdownRequested();

/**
 * Install the SIGUSR2 handler (idempotent). Same async-signal-safe
 * shape as the shutdown handler: it only raises a flag; the owner
 * polls dumpRequested() at a safe point, writes its telemetry dump,
 * and clears the flag. The run itself continues.
 */
void installDumpSignalHandler();

/** True while a SIGUSR2 telemetry dump is pending. */
bool dumpRequested();

/** Lower the dump flag once the dump has been written. */
void clearDumpRequest();

} // namespace resilience
} // namespace tdp

#endif // TDP_RESILIENCE_SHUTDOWN_HH
