/**
 * @file
 * Implementation of the virtual memory model.
 */

#include "os/virtual_memory.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tdp {

VirtualMemory::VirtualMemory(System &system, const std::string &name,
                             DiskController &disks, const Params &params)
    : SimObject(system, name), params_(params), disks_(disks),
      rng_(system.makeRng(name))
{
    if (params_.physicalMB <= params_.osReservedMB)
        fatal("VirtualMemory: physical memory smaller than OS reserve");
}

void
VirtualMemory::update(const std::vector<ThreadContext *> &threads,
                      double cache_bytes, Seconds dt)
{
    double resident_mb = 0.0;
    for (const ThreadContext *t : threads) {
        const ThreadState state = t->state();
        if (state == ThreadState::Runnable ||
            state == ThreadState::Blocked) {
            resident_mb += t->footprintMB();
        }
    }
    // The page cache competes for memory but shrinks under pressure;
    // count a quarter of it as hard residency.
    resident_mb += 0.25 * cache_bytes / 1e6;

    const double available = params_.physicalMB - params_.osReservedMB;
    pressure_ = resident_mb > available
                    ? (resident_mb - available) / resident_mb
                    : 0.0;

    if (pressure_ <= 0.0)
        return;

    // Swap traffic ramps quadratically: light overcommit mostly evicts
    // cold pages, heavy overcommit thrashes.
    const double intensity = std::min(1.0, pressure_ * pressure_ * 16.0);
    swapCarry_ += params_.maxSwapBytesPerSec * intensity * dt;

    // Issue whole requests only; fractional bytes carry over so light
    // pressure produces sparse requests, not a request every quantum.
    while (swapCarry_ >= params_.swapRequestBytes) {
        swapCarry_ -= params_.swapRequestBytes;
        swapBytes_ += params_.swapRequestBytes;
        // Page-out and page-in alternate; swap space is scattered.
        swapFlip_ = !swapFlip_;
        disks_.submit(swapFlip_, params_.swapRequestBytes,
                      rng_.uniform());
    }
}

double
VirtualMemory::stallFactor(double mem_boundness) const
{
    if (pressure_ <= 0.0)
        return 1.0;
    const double severity =
        params_.stallCoefficient * pressure_ * std::max(0.0, mem_boundness);
    return 1.0 / (1.0 + severity);
}

} // namespace tdp
