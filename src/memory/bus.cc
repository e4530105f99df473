/**
 * @file
 * Implementation of the front-side bus.
 */

#include "memory/bus.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tdp {

FrontSideBus::FrontSideBus(System &system, const std::string &name,
                           const Params &params)
    : SimObject(system, name), params_(params)
{
    if (params_.capacityTxPerSec <= 0.0)
        fatal("FrontSideBus: capacity must be positive");
    system.addTicked(this, TickPhase::Memory);
}

void
FrontSideBus::negativeTransactions(double count)
{
    panic("FrontSideBus: negative transaction count %g", count);
}

double
FrontSideBus::pendingOfKind(BusTxKind kind) const
{
    return pending_[static_cast<int>(kind)];
}

double
FrontSideBus::pendingTotal() const
{
    double total = 0.0;
    for (double p : pending_)
        total += p;
    return total;
}

double
FrontSideBus::prevOfKind(BusTxKind kind) const
{
    return prev_[static_cast<int>(kind)];
}

double
FrontSideBus::lifetimeOfKind(BusTxKind kind) const
{
    return lifetime_[static_cast<int>(kind)];
}

double
FrontSideBus::throttleFactor() const
{
    // Below ~85% utilisation the bus adds no backpressure; beyond
    // that, queueing reduces achievable demand throughput smoothly.
    const double u = prevUtilization_;
    if (u <= 0.85)
        return 1.0;
    return std::max(0.4, 1.0 - 0.8 * (u - 0.85));
}

void
FrontSideBus::tickUpdate(Tick /* now */, Tick quantum)
{
    const double dt = ticksToSeconds(quantum);
    const double capacity = params_.capacityTxPerSec * dt;

    double total = 0.0;
    for (int k = 0; k < numBusTxKinds; ++k) {
        prev_[k] = pending_[k];
        lifetime_[k] += pending_[k];
        total += pending_[k];
        pending_[k] = 0.0;
    }
    prevTotal_ = total;
    prevUtilization_ = capacity > 0.0 ? total / capacity : 0.0;
}

} // namespace tdp
