/**
 * @file
 * Implementation of graceful-shutdown coordination.
 */

#include "resilience/shutdown.hh"

#include <csignal>

#include <atomic>

namespace tdp {
namespace resilience {

namespace {

std::atomic<bool> requested{false};
std::atomic<bool> installed{false};

std::atomic<bool> dumpPending{false};
std::atomic<bool> dumpInstalled{false};

extern "C" void
onShutdownSignal(int)
{
    // Async-signal-safe: atomic store only; the owner polls.
    requested.store(true, std::memory_order_relaxed);
}

extern "C" void
onDumpSignal(int)
{
    // Async-signal-safe: atomic store only; the owner polls.
    dumpPending.store(true, std::memory_order_relaxed);
}

} // namespace

void
installShutdownHandler()
{
    if (installed.exchange(true))
        return;
    struct sigaction action = {};
    action.sa_handler = onShutdownSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0; // no SA_RESTART: interrupt blocking reads
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
}

bool
shutdownRequested()
{
    return requested.load(std::memory_order_relaxed);
}

void
installDumpSignalHandler()
{
    if (dumpInstalled.exchange(true))
        return;
    struct sigaction action = {};
    action.sa_handler = onDumpSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0; // no SA_RESTART: interrupt blocking reads
    sigaction(SIGUSR2, &action, nullptr);
}

bool
dumpRequested()
{
    return dumpPending.load(std::memory_order_relaxed);
}

void
clearDumpRequest()
{
    dumpPending.store(false, std::memory_order_relaxed);
}

} // namespace resilience
} // namespace tdp
